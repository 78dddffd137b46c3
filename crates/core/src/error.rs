//! Flow-level errors (wrapping every stage's failure mode).

use std::fmt;

/// Flow-level errors (wrapping every stage's failure mode).
#[derive(Debug)]
#[non_exhaustive]
pub enum FlowError {
    /// Invalid specification graph.
    Ir(cool_ir::IrError),
    /// Partitioning failed or proved infeasible.
    Partition(cool_partition::PartitionError),
    /// Static scheduling failed.
    Schedule(cool_schedule::ScheduleError),
    /// Memory allocation overflowed the shared memory.
    Memory(cool_stg::MemoryError),
    /// Co-simulation failed.
    Sim(cool_sim::SimError),
    /// An internal consistency check failed (synthesis bug).
    Consistency(String),
    /// A stage ran before one of its producers: the artifact slot with
    /// this label ([`crate::ArtifactSlot::label`]) is still empty in the
    /// [`crate::Artifacts`] it was read from. Indicates a mis-ordered
    /// custom [`crate::engine::Engine`], or a partial flow read past its
    /// stop point.
    MissingArtifact(&'static str),
    /// A [`crate::FlowSession`] was configured with an invalid
    /// combination of inputs (no target, a pre-seeded cost model whose
    /// embedded board is incompatible with the session target, a mapping
    /// sized for a different graph, …) — caught before any stage runs.
    Session(String),
}

impl fmt::Display for FlowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlowError::Ir(e) => write!(f, "specification error: {e}"),
            FlowError::Partition(e) => write!(f, "partitioning error: {e}"),
            FlowError::Schedule(e) => write!(f, "scheduling error: {e}"),
            FlowError::Memory(e) => write!(f, "memory allocation error: {e}"),
            FlowError::Sim(e) => write!(f, "co-simulation error: {e}"),
            FlowError::Consistency(why) => write!(f, "internal consistency error: {why}"),
            FlowError::MissingArtifact(what) => {
                write!(
                    f,
                    "stage ordering error: `{what}` has not been produced yet"
                )
            }
            FlowError::Session(why) => write!(f, "flow session misconfigured: {why}"),
        }
    }
}

impl std::error::Error for FlowError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FlowError::Ir(e) => Some(e),
            FlowError::Partition(e) => Some(e),
            FlowError::Schedule(e) => Some(e),
            FlowError::Memory(e) => Some(e),
            FlowError::Sim(e) => Some(e),
            FlowError::Consistency(_) | FlowError::MissingArtifact(_) | FlowError::Session(_) => {
                None
            }
        }
    }
}

impl From<cool_ir::IrError> for FlowError {
    fn from(e: cool_ir::IrError) -> FlowError {
        FlowError::Ir(e)
    }
}
impl From<cool_partition::PartitionError> for FlowError {
    fn from(e: cool_partition::PartitionError) -> FlowError {
        FlowError::Partition(e)
    }
}
impl From<cool_schedule::ScheduleError> for FlowError {
    fn from(e: cool_schedule::ScheduleError) -> FlowError {
        FlowError::Schedule(e)
    }
}
impl From<cool_stg::MemoryError> for FlowError {
    fn from(e: cool_stg::MemoryError) -> FlowError {
        FlowError::Memory(e)
    }
}
impl From<cool_sim::SimError> for FlowError {
    fn from(e: cool_sim::SimError) -> FlowError {
        FlowError::Sim(e)
    }
}
