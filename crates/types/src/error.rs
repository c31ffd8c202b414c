//! Error types shared across the workspace.

use std::error::Error;
use std::fmt;

/// An error produced while decoding a wire message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The buffer ended before a complete value could be read.
    Truncated {
        /// Bytes required by the next field.
        need: usize,
        /// Bytes remaining in the buffer.
        have: usize,
    },
    /// A discriminant byte had no corresponding variant.
    InvalidTag {
        /// The offending byte.
        tag: u8,
        /// The type being decoded.
        context: &'static str,
    },
    /// `from_bytes` consumed a full value but bytes remained.
    TrailingBytes {
        /// Number of unconsumed bytes.
        count: usize,
    },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated { need, have } => {
                write!(f, "truncated input: need {need} bytes, have {have}")
            }
            CodecError::InvalidTag { tag, context } => {
                write!(f, "invalid tag {tag} while decoding {context}")
            }
            CodecError::TrailingBytes { count } => {
                write!(f, "{count} trailing bytes after a complete value")
            }
        }
    }
}

impl Error for CodecError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codec_error_messages_are_lowercase_and_informative() {
        let e = CodecError::Truncated { need: 4, have: 1 };
        assert_eq!(e.to_string(), "truncated input: need 4 bytes, have 1");
        let e = CodecError::InvalidTag { tag: 9, context: "bool" };
        assert!(e.to_string().contains("invalid tag 9"));
        let e = CodecError::TrailingBytes { count: 3 };
        assert!(e.to_string().contains("3 trailing bytes"));
    }

    #[test]
    fn errors_are_send_sync() {
        fn assert_send_sync<T: Send + Sync + std::error::Error>() {}
        assert_send_sync::<CodecError>();
    }
}
