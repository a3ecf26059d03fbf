//! Seeded case generation: one `u64` seed → one [`Case`] (cluster spec ×
//! audited [`Scenario`]), valid by construction and byte-identically
//! reproducible.

use crate::config::{weighted_pick, Bounds, FuzzConfig};
use dd_core::{
    ClusterConfig, EnvChange, Fault, OpMix, Phase, Placement, Scenario, Tier, WorkloadKind,
};
use dd_sim::churn::ChurnModel;
use dd_sim::rng::stream_rng;
use dd_sim::LatencyModel;
use rand::rngs::SmallRng;
use rand::Rng;

/// RNG stream tag separating case generation from every other consumer of
/// the shared seed space.
const GEN_STREAM: u64 = 0xF022_5EED;

/// One fuzz case: the cluster under test plus the audited scenario thrown
/// at it. A full value type — the shrinker clones and mutates cases, and
/// equality is what "same repro" means.
#[derive(Debug, Clone, PartialEq)]
pub struct Case {
    /// The generator seed this case was drawn from (also the cluster and
    /// scenario seed, so one number replays everything).
    pub seed: u64,
    /// Persistent-layer size.
    pub persist_n: u64,
    /// Replication degree.
    pub replication: u32,
    /// Placement strategy.
    pub placement: Placement,
    /// The audited scenario.
    pub scenario: Scenario,
}

impl Case {
    /// The cluster configuration this case runs against.
    #[must_use]
    pub fn cluster_config(&self) -> ClusterConfig {
        ClusterConfig::small()
            .persist_n(self.persist_n)
            .replication(self.replication)
            .placement(self.placement)
    }

    /// The shrinker's size metric: total op budget plus fault clauses
    /// plus environment clauses plus persist nodes. Every accepted shrink
    /// move strictly decreases it.
    #[must_use]
    pub fn size(&self) -> u64 {
        let sc = &self.scenario;
        let ops: u64 = sc.phases.iter().filter_map(|p| p.ops).sum();
        ops + sc.faults.len() as u64 + sc.env.len() as u64 + sc.phases.len() as u64 + self.persist_n
    }

    /// The case as a self-contained, runnable Rust snippet — the repro
    /// artifact emitted for every shrunk finding.
    #[must_use]
    pub fn snippet(&self) -> String {
        format!(
            "// dd-fuzz case, seed {seed} (size {size})\n\
             let config = ClusterConfig::small()\n    \
             .persist_n({n})\n    .replication({r})\n    .placement(Placement::{p:?});\n\
             let mut cluster = Cluster::new(config, {seed});\n\
             cluster.settle();\n\
             let scenario = {scenario};\n\
             let report = cluster.run_scenario(&scenario);\n",
            seed = self.seed,
            size = self.size(),
            n = self.persist_n,
            r = self.replication,
            p = self.placement,
            scenario = self.scenario,
        )
    }
}

fn sample_workload(rng: &mut SmallRng) -> WorkloadKind {
    match rng.gen_range(0..4u8) {
        0 => WorkloadKind::Uniform,
        1 => WorkloadKind::NormalAttr {
            mean: f64::from(rng.gen_range(0..1_000u32)),
            std_dev: f64::from(rng.gen_range(1..100u32)),
        },
        2 => WorkloadKind::ZipfKeys {
            keys: rng.gen_range(32..=512),
            exponent: f64::from(rng.gen_range(80..=140u32)) / 100.0,
        },
        _ => WorkloadKind::SocialFeed { users: rng.gen_range(4..=64) },
    }
}

fn sample_mix(rng: &mut SmallRng, cfg: &FuzzConfig, writes_only: bool) -> OpMix {
    let batch = cfg.batch.sample(rng) as usize;
    if writes_only {
        let mut mix = OpMix::idle().put(3);
        if rng.gen_bool(0.4) {
            mix = mix.multi_put(1).batch(batch);
        }
        return mix;
    }
    let mut mix = OpMix::idle().get(rng.gen_range(1..=4)).put(rng.gen_range(0..=2));
    if rng.gen_bool(0.3) {
        mix = mix.multi_get(1);
    }
    if rng.gen_bool(0.2) {
        mix = mix.delete(1);
    }
    if rng.gen_bool(0.2) {
        mix = mix.scan(1);
    }
    if rng.gen_bool(0.2) {
        mix = mix.multi_put(1).batch(batch);
    }
    mix
}

fn sample_fault(rng: &mut SmallRng, cfg: &FuzzConfig, persist_n: u64) -> Fault {
    let w = cfg.fault_weights;
    let table =
        [(w.crash, 0usize), (w.flap, 1), (w.churn_burst, 2), (w.wipe_soft, 3), (w.revive_all, 4)];
    // The caller only asks for faults when at least one weight is nonzero.
    let pick = weighted_pick(rng, &table).expect("nonzero fault weight");
    // Victim counts stay below the tier size so a single clause cannot
    // take the whole layer down (the shrinker may still compose that).
    let max_victims = (persist_n / 2).max(1) as usize;
    match pick {
        0 => Fault::Crash { tier: Tier::Persist, count: rng.gen_range(1..=max_victims) },
        1 => Fault::Flap {
            tier: Tier::Persist,
            count: rng.gen_range(1..=max_victims),
            down_for: rng.gen_range(100..=1_200),
        },
        2 => Fault::ChurnBurst {
            tier: Tier::Persist,
            model: ChurnModel {
                failure_rate: f64::from(rng.gen_range(1..=30u32)) / 1_000.0,
                period: rng.gen_range(200..=1_500),
                mean_downtime: rng.gen_range(200..=2_000),
                permanent_prob: f64::from(rng.gen_range(0..=20u32)) / 100.0,
            },
            span: rng.gen_range(300..=1_500),
        },
        3 => Fault::WipeSoftLayer,
        _ => Fault::ReviveAll { tier: Tier::Persist },
    }
}

/// Generates the case for `seed` under `cfg`. Deterministic: same config,
/// same seed — same case, and the scenario it carries validates cleanly
/// (the generator pairs loss spikes with recoveries and never overlaps
/// partitions).
#[must_use]
pub fn generate(cfg: &FuzzConfig, seed: u64) -> Case {
    let rng = &mut stream_rng(seed, GEN_STREAM);

    let persist_n = cfg.persist_n.sample(rng).max(1);
    let replication = cfg.replication.sample(rng).clamp(1, persist_n) as u32;
    let placement = if cfg.placements.is_empty() {
        Placement::RangePartition
    } else {
        cfg.placements[rng.gen_range(0..cfg.placements.len())]
    };
    let workload = sample_workload(rng);

    // Workload program: a write-heavy load phase, then serve phases of
    // mixed traffic, then (sometimes) an idle repair tail that gives
    // anti-entropy a window before the audit settle.
    let mut phases = Vec::new();
    phases.push(
        Phase::new("load", cfg.phase_ticks.sample(rng))
            .mix(sample_mix(rng, cfg, true))
            .sessions(cfg.sessions.sample(rng) as usize)
            .depth(cfg.depth.sample(rng) as usize)
            .ops(cfg.ops_per_phase.sample(rng)),
    );
    for i in 0..cfg.serve_phases.sample(rng) {
        let mut phase = Phase::new(format!("serve-{i}"), cfg.phase_ticks.sample(rng))
            .mix(sample_mix(rng, cfg, false))
            .sessions(cfg.sessions.sample(rng) as usize)
            .depth(cfg.depth.sample(rng) as usize)
            .ops(cfg.ops_per_phase.sample(rng));
        if rng.gen_bool(0.25) {
            phase = phase.workload(sample_workload(rng));
        }
        phases.push(phase);
    }
    if rng.gen_range(0..100u32) < cfg.repair_tail_pct {
        phases.push(Phase::new("repair", cfg.phase_ticks.sample(rng)));
    }
    let duration: u64 = phases.iter().map(|p| p.ticks).sum::<u64>().max(2);

    // Fault schedule: independent clauses at uniform times. Times land in
    // the middle 90% of the run so a fault never races the very first
    // session spin-up tick.
    let time_of = |rng: &mut SmallRng| Bounds::new(duration / 20, duration - 1).sample(rng);
    let fw = cfg.fault_weights;
    let any_fault_weight = fw.crash + fw.flap + fw.churn_burst + fw.wipe_soft + fw.revive_all > 0;
    let mut faults = Vec::new();
    if any_fault_weight {
        for _ in 0..cfg.faults.sample(rng) {
            let at = time_of(rng);
            let fault = sample_fault(rng, cfg, persist_n);
            // A wipe is always paired with a rebuild: an unrecovered
            // soft-layer loss forfeits the version authority, and with it
            // read-your-delete — a *documented* limitation (see the
            // frozen corpus in dd-core's fuzz_regressions), not a finding
            // worth rediscovering every campaign.
            if matches!(fault, Fault::WipeSoftLayer) {
                faults.push((at, fault));
                faults.push((Bounds::new(at, duration - 1).sample(rng), Fault::RebuildSoftLayer));
                continue;
            }
            faults.push((at, fault));
        }
        faults.sort_by_key(|&(at, _)| at);
    }

    // Environment timeline: whole episodes (spike → recovery, partition →
    // heal) so the generated timeline always validates. At most one
    // partition episode per scenario.
    let ew = cfg.env_weights;
    let mut env: Vec<(u64, EnvChange)> = Vec::new();
    let mut partition_used = false;
    for _ in 0..cfg.env_episodes.sample(rng) {
        let partition_w = if partition_used { 0 } else { ew.partition };
        let table = [(ew.latency, 0usize), (ew.drop_spike, 1), (partition_w, 2)];
        let Some(pick) = weighted_pick(rng, &table) else { break };
        let start = time_of(rng);
        let end = Bounds::new(start, duration - 1).sample(rng);
        match pick {
            0 => {
                let model = if rng.gen_bool(0.5) {
                    LatencyModel::Constant(rng.gen_range(1..=20))
                } else {
                    let min = rng.gen_range(1..=10);
                    LatencyModel::Uniform { min, max: min + rng.gen_range(1..=40) }
                };
                env.push((start, EnvChange::Latency(model)));
            }
            1 => {
                let prob = f64::from(rng.gen_range(1..=40u32)) / 100.0;
                env.push((start, EnvChange::DropProb(prob)));
                env.push((end, EnvChange::DropProb(0.0)));
            }
            _ => {
                partition_used = true;
                let fraction = f64::from(rng.gen_range(10..=50u32)) / 100.0;
                env.push((start, EnvChange::PartitionPersist { fraction }));
                env.push((end, EnvChange::Heal));
            }
        }
    }
    env.sort_by_key(|&(at, _)| at);

    let scenario = Scenario {
        phases,
        faults,
        env,
        ..Scenario::new(format!("fuzz-{seed}"), workload, seed).audited()
    };

    Case { seed, persist_n, replication, placement, scenario }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_and_valid() {
        let cfg = FuzzConfig::smoke();
        for seed in 0..200 {
            let a = generate(&cfg, seed);
            let b = generate(&cfg, seed);
            assert_eq!(a, b, "seed {seed} not deterministic");
            assert!(a.scenario.planes.audit);
            assert_eq!(a.scenario.validate(), Ok(()), "seed {seed} generated invalid scenario");
            assert!(a.replication as u64 <= a.persist_n);
            assert!(a.size() > 0);
        }
    }

    #[test]
    fn soak_profile_also_generates_valid_cases() {
        let cfg = FuzzConfig::soak();
        for seed in 500..560 {
            let case = generate(&cfg, seed);
            assert_eq!(case.scenario.validate(), Ok(()), "seed {seed}");
        }
    }

    #[test]
    fn snippet_names_the_seed_and_the_cluster_spec() {
        let case = generate(&FuzzConfig::smoke(), 7);
        let snippet = case.snippet();
        assert!(snippet.contains("Cluster::new(config, 7)"));
        assert!(snippet.contains(&format!(".persist_n({})", case.persist_n)));
        assert!(snippet.contains("run_scenario(&scenario)"));
        assert!(snippet.contains(".audited()"), "repros keep auditing on");
    }
}
