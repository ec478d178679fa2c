//! Unified error type for the attack pipeline.

use std::error::Error;
use std::fmt;

use fluxprint_engine::EngineError;
use fluxprint_mobility::MobilityError;
use fluxprint_netsim::NetsimError;
use fluxprint_smc::SmcError;
use fluxprint_solver::SolverError;

/// Errors produced while building scenarios or running attacks.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CoreError {
    /// A scenario needs at least one mobile user.
    NoUsers,
    /// A configuration value was out of range.
    BadConfig {
        /// Name of the offending field.
        field: &'static str,
    },
    /// A network-simulation failure.
    Netsim(NetsimError),
    /// A mobility-construction failure.
    Mobility(MobilityError),
    /// A solver failure.
    Solver(SolverError),
    /// A tracker failure.
    Smc(SmcError),
    /// A streaming-engine failure (session or checkpoint layer).
    Engine(EngineError),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::NoUsers => write!(f, "scenario needs at least one mobile user"),
            CoreError::BadConfig { field } => write!(f, "invalid config field {field}"),
            CoreError::Netsim(e) => write!(f, "network simulation: {e}"),
            CoreError::Mobility(e) => write!(f, "mobility: {e}"),
            CoreError::Solver(e) => write!(f, "solver: {e}"),
            CoreError::Smc(e) => write!(f, "tracker: {e}"),
            CoreError::Engine(e) => write!(f, "engine: {e}"),
        }
    }
}

impl Error for CoreError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CoreError::Netsim(e) => Some(e),
            CoreError::Mobility(e) => Some(e),
            CoreError::Solver(e) => Some(e),
            CoreError::Smc(e) => Some(e),
            CoreError::Engine(e) => Some(e),
            _ => None,
        }
    }
}

impl From<NetsimError> for CoreError {
    fn from(e: NetsimError) -> Self {
        CoreError::Netsim(e)
    }
}

impl From<MobilityError> for CoreError {
    fn from(e: MobilityError) -> Self {
        CoreError::Mobility(e)
    }
}

impl From<SolverError> for CoreError {
    fn from(e: SolverError) -> Self {
        CoreError::Solver(e)
    }
}

impl From<SmcError> for CoreError {
    fn from(e: SmcError) -> Self {
        CoreError::Smc(e)
    }
}

impl From<EngineError> for CoreError {
    fn from(e: EngineError) -> Self {
        // Unwrap layer errors the engine merely relayed, so call sites
        // that matched on `CoreError::Smc`/`Solver`/`Netsim` before the
        // engine adapter keep seeing the same variants.
        match e {
            EngineError::Netsim(inner) => CoreError::Netsim(inner),
            EngineError::Smc(inner) => CoreError::Smc(inner),
            EngineError::Solver(inner) => CoreError::Solver(inner),
            other => CoreError::Engine(other),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_and_sources() {
        let errs: Vec<CoreError> = vec![
            CoreError::NoUsers,
            CoreError::BadConfig { field: "window" },
            NetsimError::EmptyNetwork.into(),
            MobilityError::EmptyTrajectory.into(),
            SolverError::ZeroSinks.into(),
            SmcError::ZeroUsers.into(),
            EngineError::BadCheckpoint { field: "rng" }.into(),
        ];
        for e in &errs {
            assert!(!e.to_string().is_empty());
        }
        assert!(Error::source(&errs[2]).is_some());
        assert!(Error::source(&errs[0]).is_none());
    }

    #[test]
    fn engine_layer_errors_unwrap_to_their_source_variant() {
        assert_eq!(
            CoreError::from(EngineError::Smc(SmcError::ZeroUsers)),
            CoreError::Smc(SmcError::ZeroUsers)
        );
        assert_eq!(
            CoreError::from(EngineError::Netsim(NetsimError::EmptyNetwork)),
            CoreError::Netsim(NetsimError::EmptyNetwork)
        );
        assert_eq!(
            CoreError::from(EngineError::Solver(SolverError::ZeroSinks)),
            CoreError::Solver(SolverError::ZeroSinks)
        );
        assert!(matches!(
            CoreError::from(EngineError::UnknownNode { index: 3, len: 1 }),
            CoreError::Engine(EngineError::UnknownNode { .. })
        ));
    }
}
