//! The performance-critical library database (§5.3 of the paper), as one
//! static table.
//!
//! Loop-based kernels are not the only channel through which parameters
//! affect performance: communication and synchronization routines depend on
//! (1) exchanged tainted values, (2) explicitly passed parameters, and (3)
//! parameters hidden inside the library runtime — above all the size of the
//! global communicator, the implicit parameter `p`. Each row of
//! [`MPI_ROUTINES`] names one routine and records:
//!
//! * the analytical [`CostModel`] the [`crate::MpiHandler`] charges it with,
//! * whether its cost depends on `p` (every collective and point-to-point
//!   routine),
//! * whether it takes a *message count*, whose taint labels become
//!   additional parametric dependencies of the call site (both engines
//!   record every argument's labels, so the argument's position is not
//!   needed),
//! * whether it is a *taint source* of `p`: the communicator-size query
//!   writes a `p`-labeled value through its pointer argument, while its
//!   own cost stays constant.
//!
//! Every reader — the handler, the static classification, the census and
//! dependency extraction — looks routines up here; nothing is allocated.

/// The analytical cost model a routine is charged with (see [`crate::comm`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CostModel {
    /// Writes the rank count through the pointer argument.
    CommSize,
    /// Writes the representative rank through the pointer argument.
    CommRank,
    /// Hockney point-to-point transfer of the count argument's words.
    P2p,
    /// Completion of outstanding requests: a fixed charge.
    Waitall,
    Barrier,
    Allreduce,
    Reduce,
    Bcast,
    Allgather,
    Gather,
}

/// One row of the library database.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Routine {
    pub name: &'static str,
    pub cost: CostModel,
    /// The routine's cost depends on the implicit parameter `p`.
    pub cost_depends_on_p: bool,
    /// The routine takes a message count: the labels observed on its
    /// arguments become parametric dependencies of the call (§5.3).
    pub has_count: bool,
    /// The routine writes a `p`-labeled value through its pointer argument.
    pub writes_p: bool,
}

impl Routine {
    /// Is this routine performance-relevant? Callers of a relevant routine
    /// are never pruned (§5.1) and count as communication routines.
    pub fn is_relevant(&self) -> bool {
        self.cost_depends_on_p || self.has_count
    }
}

/// A routine whose cost depends on `p` and on a message count.
const fn counted(name: &'static str, cost: CostModel) -> Routine {
    Routine {
        name,
        cost,
        cost_depends_on_p: true,
        has_count: true,
        writes_p: false,
    }
}

/// A routine of constant cost.
const fn constant(name: &'static str, cost: CostModel) -> Routine {
    Routine {
        name,
        cost,
        cost_depends_on_p: false,
        has_count: false,
        writes_p: false,
    }
}

/// The MPI database shipped with Perf-Taint: the routines the
/// mini-applications use, with `p` as the implicit communicator-size
/// parameter.
pub static MPI_ROUTINES: [Routine; 13] = [
    counted("MPI_Send", CostModel::P2p),
    counted("MPI_Recv", CostModel::P2p),
    counted("MPI_Isend", CostModel::P2p),
    counted("MPI_Irecv", CostModel::P2p),
    counted("MPI_Allreduce", CostModel::Allreduce),
    counted("MPI_Reduce", CostModel::Reduce),
    counted("MPI_Bcast", CostModel::Bcast),
    counted("MPI_Allgather", CostModel::Allgather),
    counted("MPI_Gather", CostModel::Gather),
    Routine {
        has_count: false,
        ..counted("MPI_Barrier", CostModel::Barrier)
    },
    constant("MPI_Waitall", CostModel::Waitall),
    // The taint source has constant cost, like the rank query: the §B1
    // functions black-box modeling gets wrong under noise.
    Routine {
        writes_p: true,
        ..constant("MPI_Comm_size", CostModel::CommSize)
    },
    constant("MPI_Comm_rank", CostModel::CommRank),
];

/// The row of the routine called `name`, if the database knows it.
pub fn lookup(name: &str) -> Option<&'static Routine> {
    MPI_ROUTINES.iter().find(|r| r.name == name)
}

/// Is `name` a performance-relevant routine (see [`Routine::is_relevant`])?
/// Unknown symbols are not.
pub fn is_relevant(name: &str) -> bool {
    lookup(name).is_some_and(Routine::is_relevant)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Relevance is the `p`-or-count rule, row by row; [`lookup`] finds
    /// each row itself (a repeated name would hide its second row); and
    /// unknown symbols are irrelevant.
    #[test]
    fn relevance_classification() {
        for (i, row) in MPI_ROUTINES.iter().enumerate() {
            let found = lookup(row.name).expect("every row is found");
            assert!(std::ptr::eq(found, row), "{} is row {i}", row.name);
            let relevant = row.cost_depends_on_p || row.has_count;
            assert_eq!(is_relevant(row.name), relevant, "{}", row.name);
        }
        assert_eq!(lookup("pt_print_i64"), None);
        assert!(!is_relevant("pt_print_i64"), "unknown symbols irrelevant");
    }

    /// Every routine the mini-applications call has a row.
    #[test]
    fn default_db_covers_used_routines() {
        for name in [
            "MPI_Send",
            "MPI_Recv",
            "MPI_Allreduce",
            "MPI_Bcast",
            "MPI_Barrier",
            "MPI_Comm_size",
            "MPI_Comm_rank",
            "MPI_Allgather",
        ] {
            assert!(lookup(name).is_some(), "{name} missing");
        }
    }

    /// Data-moving routines take a message count; synchronisation and
    /// queries do not.
    #[test]
    fn count_args_recorded() {
        assert!(lookup("MPI_Send").unwrap().has_count);
        assert!(lookup("MPI_Allreduce").unwrap().has_count);
        assert!(!lookup("MPI_Barrier").unwrap().has_count);
        assert!(!lookup("MPI_Comm_size").unwrap().has_count);
    }

    /// One routine writes `p`, the communicator-size query, and its own
    /// cost is constant.
    #[test]
    fn comm_size_is_a_taint_source_with_constant_cost() {
        let sources: Vec<&Routine> = MPI_ROUTINES.iter().filter(|r| r.writes_p).collect();
        assert_eq!(sources.len(), 1);
        assert_eq!(sources[0].cost, CostModel::CommSize);
        assert!(!sources[0].cost_depends_on_p, "cost is p-independent");
        assert!(!sources[0].is_relevant());
    }
}
