//! # graphalytics-graph
//!
//! Foundational graph substrate for the Graphalytics benchmark suite:
//!
//! * [`EdgeListGraph`] — the interchange representation produced by
//!   generators and dataset files;
//! * [`CsrGraph`] — flat compressed-sparse-row adjacency used by every
//!   compute engine;
//! * [`io`] — the Graphalytics `.v`/`.e` text dataset format;
//! * [`metrics`] — clustering coefficients, assortativity, and degree
//!   histograms (the paper's Table 1);
//! * [`distfit`] — Zeta / Geometric / Weibull / Poisson degree-distribution
//!   models, fitting, and model selection (paper §2.2, Figure 1);
//! * [`partition`] — hash / range / greedy partitioners and edge-cut
//!   accounting (the network choke point of §2.1);
//! * [`rng`] — deterministic random number generation (SplitMix64,
//!   xoshiro256++) so datasets are bit-reproducible;
//! * [`scratch`] — [`ScratchDir`], the self-removing scratch directory of
//!   the engines that spill to disk and of every test that writes files.

pub mod csr;
pub mod diameter;
pub mod distfit;
pub mod edgelist;
pub mod io;
pub mod metrics;
pub mod partition;
pub mod rng;
pub mod scratch;

pub use csr::{CsrGraph, Vid};
pub use edgelist::{Edge, EdgeListGraph, VertexId, Weight, WeightedEdge, WEIGHT_SCALE};
pub use metrics::GraphCharacteristics;
pub use scratch::ScratchDir;

/// Errors produced by the graph substrate.
#[derive(Debug)]
pub enum GraphError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A dataset file line failed to parse.
    Parse {
        /// File that failed.
        file: String,
        /// 1-based line number.
        line: usize,
        /// Truncated offending content.
        content: String,
    },
    /// A structural invariant was violated.
    Invariant(String),
}

impl std::fmt::Display for GraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphError::Io(e) => write!(f, "i/o error: {e}"),
            GraphError::Parse {
                file,
                line,
                content,
            } => write!(f, "parse error at {file}:{line}: {content:?}"),
            GraphError::Invariant(msg) => write!(f, "invariant violation: {msg}"),
        }
    }
}

impl std::error::Error for GraphError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            GraphError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for GraphError {
    fn from(e: std::io::Error) -> Self {
        GraphError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_is_informative() {
        let e = GraphError::Parse {
            file: "x.e".into(),
            line: 3,
            content: "bad".into(),
        };
        let s = e.to_string();
        assert!(s.contains("x.e:3"));
        let e = GraphError::Invariant("broken".into());
        assert!(e.to_string().contains("broken"));
    }

    #[test]
    fn io_error_converts_and_chains() {
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "gone");
        let e: GraphError = io.into();
        assert!(std::error::Error::source(&e).is_some());
    }
}
