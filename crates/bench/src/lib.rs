//! # dd-bench — experiment harness
//!
//! One bench target per paper experiment (E1–E12; see the experiment
//! catalogue in the repository `README.md`). Each target prints the
//! experiment's table — the series a figure would plot — and then times a
//! representative kernel with Criterion so `cargo bench` exercises the
//! hot paths. [`planes`] is what the three observer-plane benches share.

#![forbid(unsafe_code)]

/// Prints a table header: `name` then right-aligned column labels.
pub fn table_header(title: &str, cols: &[&str]) {
    println!("\n=== {title} ===");
    let row: Vec<String> = cols.iter().map(|c| format!("{c:>14}")).collect();
    println!("{}", row.join(" "));
}

/// Prints one row of right-aligned cells.
pub fn table_row(cells: &[String]) {
    let row: Vec<String> = cells.iter().map(|c| format!("{c:>14}")).collect();
    println!("{}", row.join(" "));
}

/// Formats a float with 3 decimals.
#[must_use]
pub fn f(v: f64) -> String {
    format!("{v:.3}")
}

/// Formats an integer-ish value.
#[must_use]
pub fn n(v: u64) -> String {
    v.to_string()
}

/// The shared harness of the observer-plane benches (E16 audit, E19
/// trace, E20 telemetry): each runs the same drills on the same cluster
/// twice — plain, then with its plane on — and writes one `BENCH_*.json`.
pub mod planes {
    use dd_core::{Cluster, ClusterConfig, Placement, Scenario, ScenarioReport};
    use dd_sim::json_escape;

    const PERSIST_N: u64 = 36;
    const REPLICATION: u32 = 3;
    /// Seed of the drill cluster and of every drill.
    pub const SEED: u64 = 2_027;

    /// A settled drill cluster.
    #[must_use]
    pub fn cluster() -> Cluster {
        let config = ClusterConfig::small()
            .persist_n(PERSIST_N)
            .replication(REPLICATION)
            .placement(Placement::TagCollocation);
        let mut c = Cluster::new(config, SEED);
        c.settle();
        c
    }

    /// A string as a JSON value.
    #[must_use]
    pub fn json_str(s: &str) -> String {
        format!("\"{}\"", json_escape(s))
    }

    /// One drill, run plain and with an observer plane on.
    pub struct Cell {
        /// The drill's name.
        pub name: String,
        /// Report of the plain run.
        pub plain: ScenarioReport,
        /// Report of the observed run.
        pub observed: ScenarioReport,
        /// Wall milliseconds of the plain run.
        pub wall_plain_ms: f64,
        /// Wall milliseconds of the observed run.
        pub wall_observed_ms: f64,
    }

    impl Cell {
        /// Runs `drill`, then `observe(drill)`, each on a fresh
        /// [`cluster`], timing `run_scenario` alone.
        pub fn run(drill: Scenario, observe: fn(Scenario) -> Scenario) -> Cell {
            let timed = |scenario: &Scenario| {
                let mut c = cluster();
                let t0 = std::time::Instant::now();
                let report = c.run_scenario(scenario);
                (report, t0.elapsed().as_secs_f64() * 1_000.0)
            };
            let (plain, wall_plain_ms) = timed(&drill);
            let (observed, wall_observed_ms) = timed(&observe(drill));
            Cell { name: plain.name.clone(), plain, observed, wall_plain_ms, wall_observed_ms }
        }

        /// This cell as one JSON row: the fields every plane reports (with
        /// `mode` naming the observed run, as in `wall_ms_audited`) around
        /// the plane's own `extra` fields, whose values are JSON already.
        #[must_use]
        pub fn row(&self, mode: &str, extra: &[(&str, String)]) -> String {
            let wall_observed = format!("wall_ms_{mode}");
            let mut fields: Vec<(&str, String)> = vec![
                ("scenario", json_str(&self.name)),
                ("issued", self.observed.issued().to_string()),
                ("ticks", self.observed.ticks.to_string()),
            ];
            fields.extend_from_slice(extra);
            fields.push(("wall_ms_plain", format!("{:.1}", self.wall_plain_ms)));
            fields.push((&wall_observed, format!("{:.1}", self.wall_observed_ms)));
            let fields: Vec<String> = fields.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
            format!("    {{{}}}", fields.join(", "))
        }
    }

    /// Writes `BENCH_<stem>.json` at the workspace root: the bench name,
    /// the drill cluster, the bench's own top-level `extra` fields (values
    /// JSON already) and its rows.
    pub fn write_json(bench: &str, stem: &str, extra: &[(&str, String)], rows: &[String]) {
        let extra: String = extra.iter().map(|(k, v)| format!("  \"{k}\": {v},\n")).collect();
        let json = format!(
            "{{\n  \"bench\": {},\n  \"cluster\": {{\"persist_n\": {PERSIST_N}, \
             \"replication\": {REPLICATION}, \"seed\": {SEED}}},\n{extra}  \"rows\": [\n{}\n  ]\n}}\n",
            json_str(bench),
            rows.join(",\n")
        );
        let file = format!("BENCH_{stem}.json");
        let path = format!("{}/../../{file}", env!("CARGO_MANIFEST_DIR"));
        match std::fs::write(&path, json) {
            Ok(()) => println!("\nwrote machine-readable summary to {file}"),
            Err(e) => eprintln!("{bench}: could not write {path}: {e}"),
        }
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn formatters_behave() {
        assert_eq!(super::f(1.23456), "1.235");
        assert_eq!(super::n(42), "42");
    }
}
