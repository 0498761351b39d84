//! The taint-policy lattice abstraction.
//!
//! The paper's dynamic stage propagates exactly one label domain: *which
//! program parameters* reach a value ([`crate::label`]). This module lifts
//! that hardwired choice into a policy seam with two layers:
//!
//! * [`PolicyKind`] — the runtime identity of a policy. It selects the
//!   engine specialization, salts content-addressed artifact keys (two
//!   policies must never share a cached analysis), and travels over the
//!   wire (protocol v1.4 `policy` field).
//! * [`PolicyMode`] — the compile-time face of the same choice. The
//!   interpreter's hot loops are generic over `P: PolicyMode` and branch
//!   on the associated `const`s, so each policy monomorphizes to its own
//!   dispatch loop. The paper policy ([`ParamPolicy`]) compiles to exactly
//!   the code the old `<const TAINT: bool>` specialization produced —
//!   every `P::SECURITY` branch folds away — which is how bit-identity of
//!   the default path is preserved by construction, not by testing alone.
//!
//! ## The lattice contract
//!
//! All policies share the [`crate::label::LabelTable`] representation: a
//! label is a node in a dedup'd union tree over *base labels*, and the
//! join is [`LabelTable::union`] — associative, commutative, idempotent,
//! with `Label::EMPTY` as bottom. Policies differ in **where base labels
//! enter** and **what the run reports**:
//!
//! * [`PolicyKind::ParamSet`] — bases are the marked program parameters
//!   (`pt_param_i64` / `pt_register_param`); sinks are loop-exit branch
//!   conditions (§4.1). The security intrinsics are inert pass-throughs.
//! * [`PolicyKind::Security`] — a strict superset: parameter sources stay
//!   active (so any program without security intrinsics behaves
//!   bit-identically under either policy, which is what lets CI re-run
//!   the whole differential matrix under `PT_POLICY=security` with zero
//!   carve-outs), and three intrinsics come alive: `pt_taint_source`
//!   introduces a source base label (may-taint join with the value's
//!   existing label), `pt_sanitize` clears a value's label to bottom,
//!   and `pt_sink_check` records a per-sink violation ledger
//!   ([`crate::records::SinkRecord`]) without altering the value.
//!
//! [`LabelTable::union`]: crate::label::LabelTable::union

/// Runtime identity of the taint policy a run executes under.
///
/// Defaults come from the `PT_POLICY` environment variable so the whole
/// test matrix can be flipped to the security policy without touching any
/// call site.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub enum PolicyKind {
    /// The paper's parameter-label domain (the default).
    #[default]
    ParamSet,
    /// Source/sink/sanitizer policy with a may-taint join.
    Security,
}

impl PolicyKind {
    /// Canonical wire/key name. This string is part of content-addressed
    /// artifact keys (store keys, unit-key environment digests) — never
    /// change it for an existing policy.
    pub fn name(self) -> &'static str {
        match self {
            PolicyKind::ParamSet => "param-set",
            PolicyKind::Security => "security",
        }
    }

    /// Parse a wire/environment name. Accepts the canonical names plus
    /// `default` as an alias for the paper policy.
    pub fn parse(s: &str) -> Option<PolicyKind> {
        match s {
            "param-set" | "paramset" | "default" => Some(PolicyKind::ParamSet),
            "security" => Some(PolicyKind::Security),
            _ => None,
        }
    }

    /// Read the policy from the `PT_POLICY` environment variable:
    /// `security`, `param-set`, or anything else / unset → [`PolicyKind::ParamSet`].
    pub fn from_env() -> PolicyKind {
        match std::env::var("PT_POLICY") {
            Ok(s) => PolicyKind::parse(&s).unwrap_or_default(),
            Err(_) => PolicyKind::default(),
        }
    }

    /// All policies, for enumerating test/bench matrices.
    pub const ALL: [PolicyKind; 2] = [PolicyKind::ParamSet, PolicyKind::Security];
}

impl std::fmt::Display for PolicyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Compile-time face of a policy: the interpreter loops are generic over
/// `P: PolicyMode` and read these `const`s, so the optimizer folds every
/// policy branch at monomorphization time. Three modes exist because
/// "taint off" (the measurement sweep) is itself a policy specialization.
pub trait PolicyMode {
    /// Labels propagate at all. `false` compiles label unions, control
    /// scopes, and record merging out of the loop (the measurement mode).
    const TAINT: bool;
    /// The security source/sink/sanitizer intrinsics are live.
    const SECURITY: bool;
}

/// Measurement mode: no label propagation at all (`taint: false`).
pub struct Measure;

/// The paper's parameter-label policy (`taint: true`, default).
pub struct ParamPolicy;

/// The security source/sink/sanitizer policy.
pub struct SecurityPolicy;

impl PolicyMode for Measure {
    const TAINT: bool = false;
    const SECURITY: bool = false;
}

impl PolicyMode for ParamPolicy {
    const TAINT: bool = true;
    const SECURITY: bool = false;
}

impl PolicyMode for SecurityPolicy {
    const TAINT: bool = true;
    const SECURITY: bool = true;
}

/// The base-label name for security source id `id`. Source bases share
/// the label table with parameter bases; the `src#` prefix keeps them
/// out of the program-parameter namespace (parameter names are
/// identifiers and cannot contain `#`).
pub fn source_base_name(id: i64) -> String {
    format!("src#{id}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_names_round_trip() {
        for kind in PolicyKind::ALL {
            assert_eq!(PolicyKind::parse(kind.name()), Some(kind));
            assert_eq!(kind.to_string(), kind.name());
        }
        assert_eq!(PolicyKind::parse("default"), Some(PolicyKind::ParamSet));
        assert_eq!(PolicyKind::parse("bogus"), None);
    }

    #[test]
    fn default_is_the_paper_policy() {
        assert_eq!(PolicyKind::default(), PolicyKind::ParamSet);
        const { assert!(ParamPolicy::TAINT && !ParamPolicy::SECURITY) };
        const { assert!(SecurityPolicy::TAINT && SecurityPolicy::SECURITY) };
        const { assert!(!Measure::TAINT && !Measure::SECURITY) };
    }

    #[test]
    fn source_bases_cannot_collide_with_parameters() {
        // Parameter names are IR identifiers; `#` is not in that alphabet.
        assert!(source_base_name(3).contains('#'));
    }
}
