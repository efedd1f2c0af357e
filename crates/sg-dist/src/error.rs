//! Typed errors for the distributed pipeline.
//!
//! Every variant carries a *stable code* string so the service layer
//! (sg-serve's federation) can map shard failures onto protocol error codes
//! without matching on human-readable messages.

use std::fmt;

/// Why a distributed run could not execute.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DistError {
    /// The scheme has no sharded-execution plan (contraction and
    /// summarization classes rewrite the vertex set globally).
    Unsupported {
        /// Registry name of the rejected scheme.
        scheme: String,
        /// Why this scheme cannot shard.
        reason: String,
    },
    /// The requested rank count is invalid (zero).
    InvalidRanks {
        /// The rejected rank count.
        ranks: usize,
    },
    /// The requested shard index is out of range.
    InvalidShard {
        /// The rejected shard index.
        shard: usize,
        /// Total shard count of the request.
        shards: usize,
    },
}

impl DistError {
    /// Stable machine-readable code (kebab-case, mirrors the serve
    /// protocol's error-code style).
    pub fn code(&self) -> &'static str {
        match self {
            DistError::Unsupported { .. } => "dist-unsupported",
            DistError::InvalidRanks { .. } => "dist-invalid-ranks",
            DistError::InvalidShard { .. } => "dist-invalid-shard",
        }
    }
}

impl fmt::Display for DistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DistError::Unsupported { scheme, reason } => {
                write!(f, "scheme '{scheme}' cannot run distributed: {reason}")
            }
            DistError::InvalidRanks { ranks } => {
                write!(f, "invalid rank count {ranks}: need at least one rank")
            }
            DistError::InvalidShard { shard, shards } => {
                write!(f, "shard {shard} out of range for {shards} shard(s)")
            }
        }
    }
}

impl std::error::Error for DistError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_stable_and_kebab_case() {
        let variants = [
            DistError::Unsupported { scheme: "summary".into(), reason: "global rewrite".into() },
            DistError::InvalidRanks { ranks: 0 },
            DistError::InvalidShard { shard: 3, shards: 2 },
        ];
        let codes: Vec<&str> = variants.iter().map(|e| e.code()).collect();
        assert_eq!(codes, vec!["dist-unsupported", "dist-invalid-ranks", "dist-invalid-shard"]);
        for (e, code) in variants.iter().zip(&codes) {
            assert!(code.chars().all(|c| c.is_ascii_lowercase() || c == '-'));
            assert!(!e.to_string().is_empty());
        }
    }
}
