//! Protocol-agnostic safety assertions over committed logs.

use eesmr_crypto::Digest;

/// Checks that all logs agree on their common prefix (SMR safety,
/// Definition 2.1 (1)); returns the first divergence found.
pub fn check_prefix_consistency(logs: &[&[Digest]]) -> Result<(), String> {
    for (i, a) in logs.iter().enumerate() {
        for (j, b) in logs.iter().enumerate().skip(i + 1) {
            let common = a.len().min(b.len());
            for idx in 0..common {
                if a[idx] != b[idx] {
                    return Err(format!(
                        "logs {i} and {j} diverge at position {idx}: {:?} vs {:?}",
                        a[idx], b[idx]
                    ));
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn consistent_prefixes_pass() {
        let a = vec![Digest::of(b"1"), Digest::of(b"2")];
        let b = vec![Digest::of(b"1")];
        assert!(check_prefix_consistency(&[&a, &b]).is_ok());
        assert!(check_prefix_consistency(&[]).is_ok());
    }

    #[test]
    fn divergence_is_reported() {
        let a = vec![Digest::of(b"1"), Digest::of(b"2")];
        let b = vec![Digest::of(b"1"), Digest::of(b"x")];
        let err = check_prefix_consistency(&[&a, &b]).unwrap_err();
        assert!(err.contains("position 1"));
    }
}
