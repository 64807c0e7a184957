//! Host provenance recorded with every result, and the process's peak
//! resident set.
//!
//! Numbers from different hosts are not comparable; the provenance
//! block says which host, build and source tree produced a result.

use std::path::Path;
use taskrt::json::Value;

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// CPU brand string from `cpuid`, or `"unknown"`.
fn cpu_model() -> String {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::__cpuid;
        // Leaf 0x8000_0000 reports the highest extended leaf; the brand
        // leaves are only read when it covers them.
        let max_ext = __cpuid(0x8000_0000).eax;
        if max_ext >= 0x8000_0004 {
            let mut bytes = Vec::with_capacity(48);
            for leaf in 0x8000_0002u32..=0x8000_0004 {
                let r = __cpuid(leaf);
                for reg in [r.eax, r.ebx, r.ecx, r.edx] {
                    bytes.extend_from_slice(&reg.to_le_bytes());
                }
            }
            let s = String::from_utf8_lossy(&bytes);
            return s.trim_matches(char::from(0)).trim().to_string();
        }
    }
    "unknown".to_string()
}

/// Whether the CPU has AVX2 and FMA.
fn avx2_fma() -> (bool, bool) {
    #[cfg(target_arch = "x86_64")]
    return (
        std::is_x86_feature_detected!("avx2"),
        std::is_x86_feature_detected!("fma"),
    );
    #[cfg(not(target_arch = "x86_64"))]
    return (false, false);
}

/// Commit hash when the tree is a git checkout (read from `.git`, no
/// subprocess); `None` otherwise.
fn git_commit() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(r) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(h) = std::fs::read_to_string(Path::new(".git").join(r)) {
        return Some(h.trim().to_string());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed
        .lines()
        .find(|l| l.ends_with(r))
        .and_then(|l| l.split_whitespace().next())
        .map(str::to_string)
}

/// FNV-1a digest over every file under `crates/` and `perfbench/src/`
/// (path and bytes, in sorted path order). Identifies the measured
/// source tree where no git metadata exists.
fn source_digest() -> String {
    fn walk(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(rd) = std::fs::read_dir(dir) else {
            return;
        };
        for e in rd.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else {
                out.push(p);
            }
        }
    }
    let mut files = Vec::new();
    walk(Path::new("crates"), &mut files);
    walk(Path::new("perfbench/src"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for f in &files {
        eat(f.to_string_lossy().as_bytes());
        eat(&std::fs::read(f).unwrap_or_default());
    }
    format!("{h:016x}")
}

/// The provenance block: host, build dispatch and source identity.
pub fn provenance() -> Vec<(String, Value)> {
    let (avx2, fma) = avx2_fma();
    vec![
        ("nproc".into(), Value::Number(nproc() as f64)),
        ("cpu_model".into(), Value::String(cpu_model())),
        ("avx2".into(), Value::Bool(avx2)),
        ("fma".into(), Value::Bool(fma)),
        (
            "sgemm_backend".into(),
            Value::String(linalg::sgemm::backend().into()),
        ),
        (
            "commit".into(),
            git_commit().map_or(Value::Null, Value::String),
        ),
        ("source_digest".into(), Value::String(source_digest())),
    ]
}

/// Resets the kernel's peak-RSS mark to the current resident set, so
/// the next [`peak_rss_mb`] reads the peak of what runs in between.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set (`VmHWM`) in MB, or 0 where `/proc` is absent.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
