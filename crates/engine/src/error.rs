//! Error type for the streaming engine.

use std::error::Error;
use std::fmt;

use fluxprint_netsim::NetsimError;
use fluxprint_smc::SmcError;
use fluxprint_solver::SolverError;

/// Errors produced while opening, driving, or restoring tracking sessions.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum EngineError {
    /// An engine or session parameter was invalid.
    BadConfig {
        /// The offending field.
        field: &'static str,
    },
    /// A checkpoint field failed validation.
    BadCheckpoint {
        /// The offending field.
        field: &'static str,
    },
    /// A checkpoint was written by an incompatible format version.
    UnsupportedVersion {
        /// Version found in the checkpoint.
        found: u32,
        /// Version this build reads and writes.
        supported: u32,
    },
    /// An observation round referenced a node the engine does not know.
    UnknownNode {
        /// The offending node index.
        index: usize,
        /// Number of nodes the engine was built over.
        len: usize,
    },
    /// A user index was out of range for the session.
    UserOutOfRange {
        /// The offending index.
        index: usize,
        /// Number of users in the session.
        users: usize,
    },
    /// A lifecycle transition was not allowed from the user's current
    /// state (e.g. resuming a departed user).
    BadLifecycle {
        /// The attempted transition.
        transition: &'static str,
    },
    /// Checkpoint JSON could not be encoded or decoded.
    CheckpointCodec(String),
    /// A grid call named a session id the grid does not hold.
    UnknownSession {
        /// The offending session id.
        index: usize,
        /// Number of sessions resident in the grid.
        sessions: usize,
    },
    /// A session failed while a grid drain was ingesting its queue. The
    /// failing round was consumed by the attempt; rounds after it remain
    /// queued, so a caller that can make progress may drain again.
    SessionFailed {
        /// The failing session's id.
        session: usize,
        /// The failing round's position within that drain's batch.
        round: usize,
        /// The underlying session error.
        source: Box<EngineError>,
    },
    /// An observation error surfaced from the network layer.
    Netsim(NetsimError),
    /// A tracking error surfaced from the SMC layer.
    Smc(SmcError),
    /// A fitting error surfaced from the solver layer.
    Solver(SolverError),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::BadConfig { field } => write!(f, "invalid engine config: {field}"),
            EngineError::BadCheckpoint { field } => {
                write!(f, "invalid checkpoint field: {field}")
            }
            EngineError::UnsupportedVersion { found, supported } => {
                write!(
                    f,
                    "checkpoint version {found} unsupported (this build reads {supported})"
                )
            }
            EngineError::UnknownNode { index, len } => {
                write!(f, "round references node {index}, engine has {len} nodes")
            }
            EngineError::UserOutOfRange { index, users } => {
                write!(f, "user {index} out of range for {users} session users")
            }
            EngineError::BadLifecycle { transition } => {
                write!(f, "lifecycle transition not allowed: {transition}")
            }
            EngineError::CheckpointCodec(msg) => write!(f, "checkpoint codec: {msg}"),
            EngineError::UnknownSession { index, sessions } => {
                write!(f, "session {index} unknown to this {sessions}-session grid")
            }
            EngineError::SessionFailed {
                session,
                round,
                source,
            } => {
                write!(
                    f,
                    "session {session} failed at batch round {round}: {source}"
                )
            }
            EngineError::Netsim(e) => write!(f, "observation layer: {e}"),
            EngineError::Smc(e) => write!(f, "tracking layer: {e}"),
            EngineError::Solver(e) => write!(f, "solver layer: {e}"),
        }
    }
}

impl Error for EngineError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            EngineError::Netsim(e) => Some(e),
            EngineError::Smc(e) => Some(e),
            EngineError::Solver(e) => Some(e),
            EngineError::SessionFailed { source, .. } => Some(source.as_ref()),
            _ => None,
        }
    }
}

impl From<NetsimError> for EngineError {
    fn from(e: NetsimError) -> Self {
        EngineError::Netsim(e)
    }
}

impl From<SmcError> for EngineError {
    fn from(e: SmcError) -> Self {
        EngineError::Smc(e)
    }
}

impl From<SolverError> for EngineError {
    fn from(e: SolverError) -> Self {
        EngineError::Solver(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_nonempty_and_sources_chain() {
        let errs = [
            EngineError::BadConfig { field: "users" },
            EngineError::BadCheckpoint { field: "rng" },
            EngineError::UnsupportedVersion {
                found: 9,
                supported: 1,
            },
            EngineError::UnknownNode { index: 7, len: 3 },
            EngineError::UserOutOfRange { index: 2, users: 1 },
            EngineError::BadLifecycle {
                transition: "resume departed",
            },
            EngineError::CheckpointCodec("bad json".into()),
            EngineError::UnknownSession {
                index: 9,
                sessions: 2,
            },
            EngineError::SessionFailed {
                session: 1,
                round: 0,
                source: Box::new(EngineError::BadConfig { field: "time" }),
            },
            EngineError::Netsim(NetsimError::EmptyNetwork),
            EngineError::Smc(SmcError::ZeroUsers),
            EngineError::Solver(SolverError::EmptyObservation),
        ];
        for e in &errs {
            assert!(!e.to_string().is_empty());
        }
        assert!(Error::source(&EngineError::Smc(SmcError::ZeroUsers)).is_some());
        assert!(Error::source(&EngineError::BadConfig { field: "x" }).is_none());
    }
}
