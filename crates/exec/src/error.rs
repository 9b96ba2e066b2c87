//! Typed execution errors.
//!
//! Both the golden interpreter ([`crate::interp::interpret`]) and the
//! cycle-level machine ([`crate::machine::execute`]) report failures
//! through [`ExecError`] instead of panicking, so a malformed schedule or
//! a truncated input stream surfaces as a value the caller can route —
//! e.g. into one sweep point's result slot — rather than aborting the
//! whole process.

use cgra_arch::topology::PeId;
use cgra_dfg::graph::OpKind;

/// Why execution (interpretation or machine run) failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// A read found no value at the expected place and time.
    ValueNotPresent {
        /// Consumer description.
        what: String,
    },
    /// A read site is neither the reader's PE nor adjacent to it.
    NotAdjacent {
        /// Reader PE.
        reader: PeId,
        /// Source PE.
        source: PeId,
    },
    /// A memory load ran before its store's data was visible.
    MemoryNotReady {
        /// Store node index.
        store: u32,
        /// Instance.
        instance: u64,
    },
    /// The mapper's read rule found no legal source for a read of an edge.
    NoReadSource {
        /// Edge index.
        edge: usize,
    },
    /// An input stream had no value for a stream load at some iteration.
    MissingInput {
        /// Load node index.
        node: u32,
        /// Iteration the read happened at.
        iteration: usize,
    },
    /// The DFG has a zero-distance cycle, so no topological order exists.
    CyclicDfg,
    /// A node's op reads an operand it has no producer for.
    MissingOperand {
        /// Node index.
        node: u32,
        /// The node's op.
        op: OpKind,
        /// Index of the missing operand.
        operand: usize,
    },
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::ValueNotPresent { what } => write!(f, "value not present: {what}"),
            ExecError::NotAdjacent { reader, source } => {
                write!(f, "read across non-link: {source} -> {reader}")
            }
            ExecError::MemoryNotReady { store, instance } => {
                write!(
                    f,
                    "memory from store n{store} instance {instance} not ready"
                )
            }
            ExecError::NoReadSource { edge } => write!(f, "edge #{edge} has no read source"),
            ExecError::MissingInput { node, iteration } => {
                write!(f, "no input for n{node} iteration {iteration}")
            }
            ExecError::CyclicDfg => write!(f, "zero-distance cycle: no topological order"),
            ExecError::MissingOperand { node, op, operand } => {
                write!(f, "n{node} ({op:?}) has no operand {operand}")
            }
        }
    }
}

impl std::error::Error for ExecError {}
