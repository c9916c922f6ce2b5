//! The known-bad spec corpus: one minimal mutation of the shipped
//! spec per rule, each engineered to trip exactly that rule — and
//! nothing else — under [`crate::verify`]. Two of the mutations are
//! PR 9's real bugs, re-introduced verbatim at the spec level, so the
//! corpus is also the proof that the verifier would have caught both
//! before they shipped.

use crate::spec::{ClientEvent, ClientState, ProtocolSpec, SessionEvent, SessionState};
use remo_core::corpus::Case;

/// PR 9 bug #1, as a spec mutation: the receive-side dedup window not
/// scoped to the sender incarnation, so a restarted sender's fresh
/// frames (seqs starting over at 1) sit below the old watermark and
/// are silently swallowed.
pub fn seq_restart_swallow() -> ProtocolSpec {
    let mut spec = ProtocolSpec::shipped();
    spec.dedup.incarnation_scoped = false;
    spec
}

/// PR 9 bug #2, as a spec mutation: stale (closed-epoch) straggler
/// reports credited as barrier attendance, resurrecting confirmed-dead
/// nodes and double-repairing already-repaired load.
pub fn straggler_resurrection() -> ProtocolSpec {
    let mut spec = ProtocolSpec::shipped();
    spec.barrier.credit_stale_reports = true;
    spec
}

/// All corpus cases, in rule-code order.
pub fn cases() -> Vec<Case<ProtocolSpec>> {
    let mut client_drops_conn_lost = ProtocolSpec::shipped();
    client_drops_conn_lost
        .client
        .retain(|r| !(r.state == ClientState::Running && r.event == ClientEvent::ConnLost));

    let mut undefined_stale_report = ProtocolSpec::shipped();
    undefined_stale_report.session.retain(|r| {
        !(r.state == SessionState::Ticking && r.event == SessionEvent::RecvReportStale)
    });

    let mut incarnation_reuse = ProtocolSpec::shipped();
    incarnation_reuse.fresh_bump = false;

    let mut unbounded_retransmit = ProtocolSpec::shipped();
    unbounded_retransmit.arq.retry_budget_enforced = false;

    vec![
        Case {
            name: "client-drops-conn-lost",
            rule: "protocol-deadlock",
            code: "RA022",
            why: "the supervisor's Running state has no ConnLost entry, so a node whose \
                  connection dies keeps believing it is connected and can never redial, \
                  drain, or give up",
            input: client_drops_conn_lost,
        },
        Case {
            name: "undefined-stale-report",
            rule: "unexpected-message",
            code: "RA023",
            why: "the session's Ticking state has no entry for straggler reports, so a \
                  late frame from a slow node lands on an undefined transition",
            input: undefined_stale_report,
        },
        Case {
            name: "straggler-resurrection",
            rule: "unexpected-message",
            code: "RA023",
            why: "PR 9 bug #2: stale reports credited as attendance resurrect a \
                  confirmed-dead node and double-repair its load",
            input: straggler_resurrection(),
        },
        Case {
            name: "incarnation-reuse",
            rule: "incarnation-regression",
            code: "RA024",
            why: "fresh Hellos no longer mint a strictly greater incarnation, so a \
                  restarted node is indistinguishable from its previous life",
            input: incarnation_reuse,
        },
        Case {
            name: "seq-restart-swallow",
            rule: "incarnation-regression",
            code: "RA024",
            why: "PR 9 bug #1: the dedup window ignores the sender incarnation, so a \
                  restarted sender's first frames are silently swallowed",
            input: seq_restart_swallow(),
        },
        Case {
            name: "unbounded-retransmit",
            rule: "unbounded-inflight",
            code: "RA025",
            why: "the ARQ retry budget is not enforced, so an unreachable peer's frames \
                  are retransmitted forever and the unacked set never drains",
            input: unbounded_retransmit,
        },
    ]
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use crate::verify::test_verify;

    /// The heart of the corpus: every mutation trips its named rule
    /// and *only* that rule, before and after a JSON round-trip — so
    /// a verifier regression (a missed bug or a false positive) fails
    /// this test by name.
    #[test]
    fn each_case_trips_exactly_its_rule() {
        remo_core::corpus::check(&cases(), |spec| test_verify(spec).findings);
    }

    /// Seed-the-bug regression: PR 9's seq-restart dedup bug, caught
    /// as RA024 by the ARQ and lattice phases.
    #[test]
    fn verifier_catches_the_seq_restart_bug() {
        let report = test_verify(&seq_restart_swallow());
        assert!(
            report
                .findings
                .iter()
                .any(|f| f.code == "RA024" && f.message.contains("swallowed")),
            "the verifier must catch the PR 9 seq-restart swallow: {:?}",
            report.findings
        );
    }

    /// Seed-the-bug regression: PR 9's straggler-resurrection bug,
    /// caught as RA023 by the control-plane phase.
    #[test]
    fn verifier_catches_the_straggler_resurrection_bug() {
        let report = test_verify(&straggler_resurrection());
        assert!(
            report
                .findings
                .iter()
                .any(|f| f.code == "RA023" && f.message.contains("resurrected")),
            "the verifier must catch the PR 9 straggler resurrection: {:?}",
            report.findings
        );
    }
}
