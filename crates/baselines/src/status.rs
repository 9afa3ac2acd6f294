//! Protocol-agnostic safety assertions over committed logs.

use eesmr_core::Block;

/// Checks that all logs agree on their common prefix (SMR safety,
/// Definition 2.1 (1)); returns the first divergence found.
pub fn check_prefix_consistency(logs: &[&[Block]]) -> Result<(), String> {
    for (i, a) in logs.iter().enumerate() {
        for (j, b) in logs.iter().enumerate().skip(i + 1) {
            let common = a.len().min(b.len());
            for idx in 0..common {
                let (x, y) = (a[idx].id(), b[idx].id());
                if x != y {
                    return Err(format!(
                        "logs {i} and {j} diverge at position {idx}: {x:?} vs {y:?}"
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

    /// A block at `height` with one distinguishing command.
    fn block(height: u64, tag: u64) -> Block {
        let cmd = eesmr_core::Command::synthetic(tag, 8);
        Block::new(eesmr_crypto::Digest::ZERO, height, 1, 3, vec![cmd])
    }

    #[test]
    fn consistent_prefixes_pass() {
        let a = vec![block(1, 1), block(2, 2)];
        let b = vec![block(1, 1)];
        assert!(check_prefix_consistency(&[&a, &b]).is_ok());
        assert!(check_prefix_consistency(&[]).is_ok());
    }

    #[test]
    fn divergence_is_reported() {
        let a = vec![block(1, 1), block(2, 2)];
        let b = vec![block(1, 1), block(2, 9)];
        let err = check_prefix_consistency(&[&a, &b]).unwrap_err();
        assert!(err.contains("position 1"));
    }
}
