//! The workspace-level error type.
//!
//! Session-first APIs ([`crate::RingInstance`], [`crate::parse`]) return one
//! [`Error`] end to end instead of leaking each layer's own enum; the
//! per-crate types ([`prs_bd::BdError`], [`prs_graph::GraphError`]) convert
//! in via `From`, so `?` composes across the stack.

use prs_bd::BdError;
use prs_graph::GraphError;
use prs_p2psim::CapacityError;
use std::fmt;

/// Any failure the `prs` stack can report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// A decomposition failure (degenerate instance).
    Bd(BdError),
    /// A graph-construction failure (bad topology or weights).
    Graph(GraphError),
    /// A weight without a usable f64 capacity, so the f64 swarm cannot
    /// play it.
    Capacity(CapacityError),
    /// An instance-file parse failure, with its 1-based line number
    /// (0 for file-level problems like a missing directive).
    Parse {
        /// Line the error was detected on.
        line: usize,
        /// Human-readable description.
        message: String,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Bd(e) => write!(f, "{e}"),
            Error::Graph(e) => write!(f, "{e}"),
            Error::Capacity(e) => write!(f, "{e}"),
            Error::Parse { line, message } => write!(f, "line {line}: {message}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Bd(e) => Some(e),
            Error::Graph(e) => Some(e),
            Error::Capacity(e) => Some(e),
            Error::Parse { .. } => None,
        }
    }
}

impl From<BdError> for Error {
    fn from(e: BdError) -> Self {
        Error::Bd(e)
    }
}

impl From<GraphError> for Error {
    fn from(e: GraphError) -> Self {
        Error::Graph(e)
    }
}

impl From<CapacityError> for Error {
    fn from(e: CapacityError) -> Self {
        Error::Capacity(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        let bd: Error = BdError::EmptyGraph.into();
        assert!(matches!(bd, Error::Bd(BdError::EmptyGraph)));
        let graph: Error = GraphError::SelfLoop { vertex: 3 }.into();
        assert!(graph.to_string().contains("self-loop"));
        let capacity: Error = CapacityError::Underflow(2).into();
        assert_eq!(
            capacity.to_string(),
            "positive weight of agent 2 underflows to f64 capacity 0"
        );
        assert!(std::error::Error::source(&capacity).is_some());
        let parse = Error::Parse {
            line: 2,
            message: "invalid weight `x`".into(),
        };
        assert_eq!(parse.to_string(), "line 2: invalid weight `x`");
    }

    #[test]
    fn question_mark_composes() {
        fn build() -> Result<prs_graph::Graph, Error> {
            let g = prs_graph::builders::ring(vec![
                prs_numeric::int(1),
                prs_numeric::int(2),
                prs_numeric::int(3),
            ])?;
            prs_bd::decompose(&g)?;
            Ok(g)
        }
        assert!(build().is_ok());
    }
}
