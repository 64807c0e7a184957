//! Output validation: a job whose outputs differ from its oracle
//! counts as failed.

/// Per-fold predictions must equal the oracle's exactly.
pub fn same_predictions(what: &str, got: &[Vec<u8>], oracle: &[Vec<u8>]) -> Result<(), String> {
    if got.len() != oracle.len() {
        return Err(format!(
            "{what}: {} folds, oracle has {}",
            got.len(),
            oracle.len()
        ));
    }
    for (fold, (g, o)) in got.iter().zip(oracle).enumerate() {
        if g != o {
            let at = g.iter().zip(o).position(|(a, b)| a != b);
            return Err(format!(
                "{what}: fold {fold} predictions differ from the inline oracle \
                 (lengths {} vs {}, first difference at {at:?})",
                g.len(),
                o.len()
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_flipped_prediction_fails() {
        let oracle = vec![vec![0, 1, 1], vec![1, 0]];
        assert!(same_predictions("knn", &oracle, &oracle).is_ok());
        let mut bad = oracle.clone();
        bad[1][1] ^= 1;
        let err = same_predictions("knn", &bad, &oracle).unwrap_err();
        assert!(err.contains("fold 1") && err.contains("Some(1)"), "{err}");
        assert!(same_predictions("knn", &oracle[..1], &oracle).is_err());
    }
}
