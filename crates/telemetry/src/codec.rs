//! Sealed-document codec: a length/checksum footer for JSON documents
//! that must survive crashes.
//!
//! The tuning service persists its cache tiers by writing a JSON body
//! through [`crate::json`] and sealing it with a one-line footer carrying
//! the body's byte length and FNV-1a 64 checksum. A reader first verifies
//! the footer ([`unseal`]) before parsing: a torn write (partial body, a
//! missing footer after `kill -9`, bit rot) fails the seal check with a
//! typed [`CodecError`] instead of feeding garbage into the JSON parser
//! or — worse — restoring a silently corrupted cache entry.
//!
//! The footer is deliberately line-oriented and human-readable:
//!
//! ```text
//! {"schema":"hslb-cache-snapshot/v2", ...}
//! #hslb-seal v1 len=1234 fnv=00a1b2c3d4e5f607
//! ```
//!
//! Atomicity (temp file + rename) is the *writer's* job; this module only
//! defines what a well-formed sealed document looks like.

use std::fmt;

/// Footer marker; also the parse anchor for [`unseal`].
const SEAL_PREFIX: &str = "#hslb-seal v1 ";

/// Why a sealed document failed verification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// No footer line at the end of the document (torn write, wrong file).
    MissingFooter,
    /// The footer line exists but does not parse.
    MalformedFooter { detail: String },
    /// The body's byte length disagrees with the footer (truncation).
    LengthMismatch { expected: usize, actual: usize },
    /// The body's checksum disagrees with the footer (corruption).
    ChecksumMismatch { expected: u64, actual: u64 },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::MissingFooter => write!(f, "sealed document has no footer line"),
            CodecError::MalformedFooter { detail } => {
                write!(f, "sealed document footer is malformed: {detail}")
            }
            CodecError::LengthMismatch { expected, actual } => write!(
                f,
                "sealed document truncated: footer says {expected} bytes, body has {actual}"
            ),
            CodecError::ChecksumMismatch { expected, actual } => write!(
                f,
                "sealed document corrupted: footer checksum {expected:016x}, body hashes to {actual:016x}"
            ),
        }
    }
}

impl std::error::Error for CodecError {}

/// FNV-1a 64-bit hash — the workspace's standard dependency-free digest
/// (the service's shard router uses the same constants).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Append the seal footer to `body`, producing the full file contents.
/// The body must be newline-terminated (callers hand over a JSON document
/// plus `\n`); a missing terminator is added so the footer stays on its
/// own line.
pub fn seal(body: &str) -> String {
    let mut out = String::with_capacity(body.len() + 48);
    out.push_str(body);
    if !out.ends_with('\n') {
        out.push('\n');
    }
    let sealed_len = out.len();
    let sum = fnv1a64(out.as_bytes());
    out.push_str(SEAL_PREFIX);
    out.push_str(&format!("len={sealed_len} fnv={sum:016x}\n"));
    out
}

/// Verify the footer of a sealed document and hand back the body slice
/// (newline-terminated, footer stripped). Every failure is typed so the
/// caller can degrade to a cold start with the reason on the record.
pub fn unseal(text: &str) -> Result<&str, CodecError> {
    let trimmed = text.strip_suffix('\n').unwrap_or(text);
    let footer_at = match trimmed.rfind('\n') {
        Some(i) => i + 1,
        None => return Err(CodecError::MissingFooter),
    };
    let footer = &trimmed[footer_at..];
    let Some(args) = footer.strip_prefix(SEAL_PREFIX) else {
        return Err(CodecError::MissingFooter);
    };
    let mut len: Option<usize> = None;
    let mut fnv: Option<u64> = None;
    for part in args.split_whitespace() {
        if let Some(v) = part.strip_prefix("len=") {
            len = v.parse().ok();
        } else if let Some(v) = part.strip_prefix("fnv=") {
            fnv = u64::from_str_radix(v, 16).ok();
        }
    }
    let (expected_len, expected_fnv) = match (len, fnv) {
        (Some(l), Some(s)) => (l, s),
        _ => {
            return Err(CodecError::MalformedFooter {
                detail: footer.to_string(),
            })
        }
    };
    let body = &text[..footer_at];
    if body.len() != expected_len {
        return Err(CodecError::LengthMismatch {
            expected: expected_len,
            actual: body.len(),
        });
    }
    let actual = fnv1a64(body.as_bytes());
    if actual != expected_fnv {
        return Err(CodecError::ChecksumMismatch {
            expected: expected_fnv,
            actual,
        });
    }
    Ok(body)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seal_round_trips() {
        let body = "{\"schema\":\"test/v1\",\"x\":1}\n";
        let sealed = seal(body);
        assert_eq!(unseal(&sealed).unwrap(), body);
    }

    #[test]
    fn seal_adds_missing_terminator() {
        let sealed = seal("{}");
        assert_eq!(unseal(&sealed).unwrap(), "{}\n");
    }

    #[test]
    fn truncation_is_a_length_mismatch() {
        let sealed = seal("{\"a\":[1,2,3,4,5]}\n");
        // Chop bytes out of the body but keep the footer line (and the
        // newline that precedes it) intact.
        let footer_start = sealed.rfind(SEAL_PREFIX).unwrap();
        let torn = format!(
            "{}{}",
            &sealed[..footer_start - 6],
            &sealed[footer_start - 1..]
        );
        assert!(matches!(
            unseal(&torn),
            Err(CodecError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn flipped_bit_is_a_checksum_mismatch() {
        let sealed = seal("{\"a\":1}\n");
        let corrupted = sealed.replacen("\"a\":1", "\"a\":7", 1);
        assert!(matches!(
            unseal(&corrupted),
            Err(CodecError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn missing_footer_is_typed() {
        assert_eq!(unseal("{\"a\":1}\n"), Err(CodecError::MissingFooter));
        assert_eq!(unseal(""), Err(CodecError::MissingFooter));
        assert_eq!(unseal("no newlines at all"), Err(CodecError::MissingFooter));
    }

    #[test]
    fn malformed_footer_is_typed() {
        let bad = "{\"a\":1}\n#hslb-seal v1 len=oops fnv=zz\n";
        assert!(matches!(
            unseal(bad),
            Err(CodecError::MalformedFooter { .. })
        ));
    }

    #[test]
    fn fnv_matches_known_vector() {
        // FNV-1a 64 of the empty string is the offset basis.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
    }
}
