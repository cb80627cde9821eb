//! Error type shared across the relational substrate.

use std::fmt;

/// Errors produced by the relational layer (and re-used by higher layers for
/// schema/type violations).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RelError {
    /// A relation name was not found in the catalog.
    UnknownRelation(String),
    /// A column name could not be resolved (possibly ambiguous).
    UnknownColumn(String),
    /// A value had the wrong type for the operation.
    TypeMismatch { expected: String, found: String },
    /// Tuple arity does not match the schema.
    ArityMismatch { expected: usize, found: usize },
    /// Input text could not be parsed into a value / relation.
    Parse(String),
    /// An injected fault the engine could not absorb. `transient` faults
    /// (a dropped delivery) are worth re-executing as they are; the others
    /// (a machine lost with no checkpoint to recover from) abort the run.
    Fault { transient: bool, message: String },
    /// An execution panicked and was caught at its host's boundary. Holds
    /// the host's full rendering (`execution panicked: <payload>`, prefixed
    /// with the tenant by a server). Hosts never retry these.
    Panicked(String),
    /// Anything else (kept as a message to avoid a sprawling enum).
    Other(String),
}

impl fmt::Display for RelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RelError::UnknownRelation(n) => write!(f, "unknown relation `{n}`"),
            RelError::UnknownColumn(n) => write!(f, "unknown or ambiguous column `{n}`"),
            RelError::TypeMismatch { expected, found } => {
                write!(f, "type mismatch: expected {expected}, found {found}")
            }
            RelError::ArityMismatch { expected, found } => {
                write!(f, "arity mismatch: schema has {expected} columns, tuple has {found}")
            }
            RelError::Parse(m) => write!(f, "parse error: {m}"),
            RelError::Fault { transient: true, message } => {
                write!(f, "transient fault: {message}")
            }
            RelError::Fault { transient: false, message } => write!(f, "fault: {message}"),
            RelError::Panicked(m) | RelError::Other(m) => write!(f, "{m}"),
        }
    }
}

impl std::error::Error for RelError {}

impl RelError {
    /// Shorthand for a [`RelError::TypeMismatch`].
    pub fn type_mismatch(expected: impl Into<String>, found: impl Into<String>) -> Self {
        RelError::TypeMismatch { expected: expected.into(), found: found.into() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The typed fault variants render exactly the texts the untyped
    /// `Other(..)` errors they replaced carried, so logs and reports that
    /// print them are unchanged.
    #[test]
    fn fault_and_panic_display_strings_are_pinned() {
        let drop = RelError::Fault { transient: true, message: "link 0 -> 2".into() };
        assert_eq!(drop.to_string(), "transient fault: link 0 -> 2");
        let lost = RelError::Fault { transient: false, message: "machine 1 lost".into() };
        assert_eq!(lost.to_string(), "fault: machine 1 lost");
        let panicked = RelError::Panicked("tenant 3: execution panicked: boom".into());
        assert_eq!(panicked.to_string(), "tenant 3: execution panicked: boom");
    }
}
