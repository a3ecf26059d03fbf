//! The CI fuzz tier: sweep a fixed window of a few hundred seeds under a
//! wall-clock guard, and fail if any safety violation or engine panic
//! survives shrinking. Durability warnings (LostWrite) are expected —
//! the paper's design trades a bounded amount of durability under churn
//! and unrevived crashes — and their census is frozen, so a change that
//! moves it says so.

use dd_core::{LostCause, ViolationKind};
use dd_fuzz::{run_campaign, run_case, CampaignPlan, FuzzConfig, Verdict};
use std::time::Duration;

/// The fixed seed window CI sweeps. Moving it is a deliberate act (it
/// changes which scenarios CI explores), not a side effect.
const CI_SEED_START: u64 = 0;
const CI_SEEDS: u64 = 250;

/// The census of the window, frozen: `(clean, durability, safety, panics,
/// rejected)`. Lost writes are the only violation. Every tuple has an
/// owner, so none is lost without a fault: they are acked writes whose
/// owners all crashed unrevived, plus (rarely, under a message-loss spike)
/// one whose live owner never received it. A change that moves these
/// numbers edits them here and says why.
const CENSUS: (u64, u64, u64, u64, u64) = (198, 52, 0, 0, 0);
/// Client operations the window's runs issued: the traffic behind the
/// census. A census move with this unmoved is the protocol; with this
/// moved, the load moved too.
const OPS_ISSUED: u64 = 13_902;
/// Lost writes across the window by cause, the census's only violation
/// kind.
const LOST_WRITES: [(Option<LostCause>, u64); 2] =
    [(Some(LostCause::AllOwnersDown), 316), (Some(LostCause::LiveOwnerMissing), 1)];
/// The shrunk findings: the first two durability seeds (the smoke profile
/// shrinks two), both lost writes.
const FINDINGS: [(u64, Verdict); 2] = [
    (3, Verdict::Violating(ViolationKind::LostWrite)),
    (17, Verdict::Violating(ViolationKind::LostWrite)),
];

#[test]
fn smoke_campaign_has_no_unshrunk_safety_violations() {
    let cfg = FuzzConfig::smoke();
    let plan = CampaignPlan::sweep(CI_SEED_START, CI_SEEDS).budget(Duration::from_secs(600));
    let summary = run_campaign(&cfg, &plan);
    assert_eq!(
        summary.seeds_run, CI_SEEDS,
        "the wall budget cut the CI tier short — shrink the smoke profile"
    );
    let safety = summary.safety_findings();
    assert!(
        safety.is_empty(),
        "{} safety finding(s) survived shrinking:\n{}",
        safety.len(),
        safety.iter().map(|f| f.snippet()).collect::<Vec<_>>().join("\n")
    );
    assert_eq!(
        (summary.clean, summary.durability, summary.safety, summary.panics, summary.rejected),
        CENSUS,
        "the smoke census moved; edit CENSUS and say why"
    );
    assert_eq!(summary.ops_issued, OPS_ISSUED, "the smoke traffic moved; edit OPS_ISSUED");
    let lost: u64 = LOST_WRITES.iter().map(|&(_, n)| n).sum();
    assert_eq!(summary.kind_census, [(ViolationKind::LostWrite, lost)]);
    assert_eq!(summary.cause_census, LOST_WRITES);
    let findings: Vec<_> = summary.findings.iter().map(|f| (f.seed, f.verdict)).collect();
    assert_eq!(findings, FINDINGS);
    // Every shrunk finding got strictly smaller or stayed put, never grew.
    for f in &summary.findings {
        assert!(f.stats.final_size <= f.stats.original_size);
        assert_eq!(f.case.scenario.validate(), Ok(()));
    }
}

#[test]
fn campaigns_replay_byte_identically() {
    let cfg = FuzzConfig::smoke();
    let plan = CampaignPlan::sweep(40, 25);
    let a = run_campaign(&cfg, &plan);
    let b = run_campaign(&cfg, &plan);
    assert_eq!(a.seeds_run, b.seeds_run);
    assert_eq!(
        (a.clean, a.durability, a.safety, a.panics, a.rejected),
        (b.clean, b.durability, b.safety, b.panics, b.rejected)
    );
    assert_eq!(a.kind_census, b.kind_census);
    assert_eq!(a.cause_census, b.cause_census);
    assert_eq!(a.findings.len(), b.findings.len());
    for (fa, fb) in a.findings.iter().zip(&b.findings) {
        assert_eq!(fa.seed, fb.seed);
        assert_eq!(fa.verdict, fb.verdict);
        assert_eq!(fa.case, fb.case, "shrinking must be deterministic");
        assert_eq!(fa.stats, fb.stats);
    }
}

#[test]
fn emitted_minimal_cases_replay_byte_identically_and_keep_their_verdict() {
    let summary = run_campaign(&FuzzConfig::smoke(), &CampaignPlan::sweep(0, 30));
    let finding = summary.findings.first().expect("the smoke window starts with known findings");
    let a = run_case(&finding.case);
    let b = run_case(&finding.case);
    assert_eq!(a.verdict, finding.verdict, "the minimal case witnesses the preserved verdict");
    assert_eq!(a.report, b.report, "replaying the emitted scenario must be byte-identical");
    let snippet = finding.snippet();
    assert!(snippet.contains("run_scenario(&scenario)"));
    assert!(snippet.contains(&format!("Cluster::new(config, {})", finding.seed)));
    // The observed re-run the binary exports beside the census.
    let seen = finding.observe();
    assert_eq!(seen.verdict, finding.verdict, "observation is passive");
    // Beyond the header each export always carries: a span, a sample.
    assert!(seen.trace_json.contains(r#""ph":"X""#), "{}", seen.trace_json);
    assert!(seen.telemetry_csv.lines().count() > 1, "{}", seen.telemetry_csv);
}

#[test]
fn a_panicking_case_is_classified_not_propagated() {
    // Scenario validation cannot see the cluster spec; a zero-node
    // persist layer trips Cluster::new's assertion, which run_case must
    // catch and classify rather than unwind.
    let mut case = dd_fuzz::generate(&FuzzConfig::smoke(), 3);
    case.persist_n = 0;
    let result = run_case(&case);
    assert_eq!(result.verdict, Verdict::Panicked);
    assert!(result.panic_msg.expect("payload captured").contains("persist node"));
}
