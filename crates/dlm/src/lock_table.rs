//! How a runner configures its lock table: the promotion [`Bias`] and
//! cohort count of a [`QueueTable`], as one serializable [`TableSpec`]
//! the simulator, the threaded runner and the bench driver share.

use crate::queue_table::QueueTable;
use std::hash::Hash;

/// Reader/writer scheduling bias for [`QueueTable`] grant promotion.
///
/// The bias never changes *admission* (who may be granted immediately,
/// who must wait, what prevention sees as obstacles) — only the order in
/// which *queued* waiters are promoted when a release frees capacity:
///
/// * [`Bias::Neutral`] — strict FIFO (what the differential tests against
///   the reference table pin).
/// * [`Bias::ReaderBatch`] — after the FIFO-compatible prefix is granted,
///   every *other* queued reader compatible with the holder set is pulled
///   forward too, maximizing reader concurrency at the cost of delaying
///   writers behind larger batches.
/// * [`Bias::WriterPreference`] — when the lock falls free, the first
///   queued writer is granted even if readers queued ahead of it,
///   bounding writer latency at the cost of reader reordering.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Bias {
    /// Strict FIFO.
    #[default]
    Neutral,
    /// Batch compatible readers from anywhere in the queue.
    ReaderBatch,
    /// Serve the first queued writer ahead of earlier readers.
    WriterPreference,
}

/// The lock-table knobs a runner sweeps. The default — neutral bias, no
/// cohorts — is the strict-FIFO table every fixed-seed pin runs against.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct TableSpec {
    /// Promotion bias (see [`Bias`]).
    pub bias: Bias,
    /// Number of topology cohorts for locality-aware handoff;
    /// `0` disables cohort handoff entirely.
    pub cohorts: u32,
}

impl TableSpec {
    /// Builds an empty table with this spec's bias and cohorts; `cohort_of`
    /// maps an owner to its cohort (see [`QueueTable::with_topology`]).
    pub fn build<O: Copy + Eq + Ord + Hash>(&self, cohort_of: fn(O, u32) -> u32) -> QueueTable<O> {
        QueueTable::new()
            .with_bias(self.bias)
            .with_topology(self.cohorts, cohort_of)
    }

    /// Short stable label for bench records and logs.
    pub fn label(&self) -> &'static str {
        match (self.bias, self.cohorts) {
            (Bias::Neutral, 0) => "queue",
            (Bias::Neutral, _) => "queue+cohort",
            (Bias::ReaderBatch, _) => "queue+rbatch",
            (Bias::WriterPreference, _) => "queue+wpref",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_spec_labels_are_stable() {
        assert_eq!(TableSpec::default().label(), "queue");
        assert_eq!(
            TableSpec {
                bias: Bias::Neutral,
                cohorts: 4
            }
            .label(),
            "queue+cohort"
        );
        assert_eq!(
            TableSpec {
                bias: Bias::WriterPreference,
                cohorts: 0
            }
            .label(),
            "queue+wpref"
        );
    }
}
