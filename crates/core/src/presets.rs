//! The preset table: every paper table, headline claim, RNG and policy
//! study, and ablation as one row of data, [`PRESETS`].
//!
//! A row declares the [`StudySpec`]s it needs (none for the
//! physics-only rows) and a render step that writes its output from one
//! [`StudyReport`] per spec. [`Preset::run`] plans the union of a row's
//! specs as one grid ([`run_specs`]), so a cell two specs share is
//! simulated and evaluated once, then hands each spec its own slice.
//! The study-backed rows render through a [`views`] function; the
//! physics-only rows build their tables directly. Every row renders in
//! any [`Format`]: [`Format::Text`] is the historic stdout, byte for
//! byte.
//!
//! The spec builders ([`table1`] … [`variation_study`]) are a handful
//! of axis declarations over the generic grid runner, all pinning the
//! policy seed to `1` (the historic LFSR seed) so the measured values
//! match the pre-redesign runners bit for bit.
//!
//! # Examples
//!
//! Regenerating a paper table is a row lookup:
//!
//! ```no_run
//! use aging_cache::presets::{self, Out};
//! use aging_cache::render::Format;
//! use aging_cache::session::StudySession;
//!
//! # fn main() -> Result<(), aging_cache::CoreError> {
//! let row = presets::find("table2").expect("a preset row");
//! let mut out = Out::new(Format::Text);
//! row.run(&StudySession::new(), &mut out)?;
//! print!("{}", out.text);
//! # Ok(())
//! # }
//! ```
//!
//! A spec is an ordinary [`StudySpec`], so axes can be overridden
//! before running — e.g. Table II on a trace file instead of the
//! synthetic suite:
//!
//! ```no_run
//! use aging_cache::experiment::ExperimentConfig;
//! use aging_cache::session::StudySession;
//! use aging_cache::{presets, views};
//!
//! # fn main() -> Result<(), aging_cache::CoreError> {
//! let cfg = ExperimentConfig::paper_reference(); // 16 kB, 16 B, M = 4
//! let spec = presets::table2(&cfg).workload_names(["csv:/traces/my_app.csv"])?;
//! let report = StudySession::new().run(&spec)?;
//! println!("{}", views::table2(&report)?);
//! # Ok(())
//! # }
//! ```

use crate::aging::AgingAnalysis;
use crate::analysis::Reduce;
use crate::arch::{simulate_fanout, PartitionedCache, SimTarget, UpdateSchedule};
use crate::error::CoreError;
use crate::experiment::ExperimentConfig;
use crate::fine_grain::FineGrainStudy;
use crate::flip::CellFlip;
use crate::graceful::GracefulDegradation;
use crate::lfsr::Lfsr;
use crate::policy::Scrambling;
use crate::registry::PolicyRegistry;
use crate::render::{self, Format};
use crate::report::{years, Table};
use crate::search::union_into;
use crate::session::StudySession;
use crate::study::{ScenarioRecord, StudyReport, StudySpec};
use crate::views;
use cache_sim::{BankMapping, CacheGeometry, SimOutcome};
use nbti_model::{calibration, CellDesign, LifetimeSolver, SleepMode, StressProfile};
use trace_synth::rng::SplitMix64;
use trace_synth::{suite, WorkloadProfile};

/// **Table I** — idleness distribution at the configured geometry,
/// full suite, Probing.
pub fn table1(cfg: &ExperimentConfig) -> StudySpec {
    cfg.study("Table I").policies(["probing"])
}

/// **Table II** — Esav / LT0 / LT vs cache size (8/16/32 kB).
pub fn table2(cfg: &ExperimentConfig) -> StudySpec {
    cfg.study("Table II")
        .cache_kb([8, 16, 32])
        .policies(["probing"])
}

/// **Table III** — Esav / LT vs line size (16/32 B at 16 kB).
pub fn table3(cfg: &ExperimentConfig) -> StudySpec {
    cfg.study("Table III")
        .cache_kb([16])
        .line_bytes([16, 32])
        .policies(["probing"])
}

/// **Table IV** — idleness / LT over the (size × banks) grid.
pub fn table4(cfg: &ExperimentConfig) -> StudySpec {
    cfg.study("Table IV")
        .cache_kb([8, 16, 32])
        .banks([2, 4, 8])
        .policies(["probing"])
}

/// §IV-B1 headline claims — the Table II grid under another name.
pub fn claims(cfg: &ExperimentConfig) -> StudySpec {
    table2(cfg)
}

/// §IV-B2 — Probing vs Scrambling on every benchmark.
pub fn policy_equivalence(cfg: &ExperimentConfig) -> StudySpec {
    cfg.study("Probing vs Scrambling")
        .policies(["probing", "scrambling"])
}

/// Ablation — operating temperature: the reference model swept over
/// the Arrhenius range on the
/// [`StudySpec::temps_c`] axis, driven by the historic pinned
/// idleness profile (NBTI rates scale uniformly with temperature, so
/// the re-indexing gain is temperature-invariant).
pub fn ablation_temperature() -> StudySpec {
    StudySpec::new("Ablation: operating temperature")
        .models(["nbti-45nm"])
        .temps_c([45.0, 65.0, 85.0, 105.0, 125.0])
        .policies(["probing"])
        .workload_names(["profile:0.1,0.8,0.6,0.3"])
        .expect("static profile key")
        .policy_seed(1)
}

/// Ablation — the drowsy-voltage design knob: lifetime (`nbti` model)
/// and fresh/aged retention margins (`drv` model) swept together over
/// the [`StudySpec::vdd_low`] axis, on the historic sha-like pinned
/// profile, bracketing the paper's 0.75 V choice.
pub fn ablation_vlow() -> StudySpec {
    StudySpec::new("Ablation: drowsy rail voltage")
        .models(["nbti-45nm", "drv"])
        .vdd_low([0.55, 0.65, 0.75, 0.85, 0.95])
        .policies(["probing"])
        .workload_names(["profile:0.05,0.95,0.9,0.4"])
        .expect("static profile key")
        .policy_seed(1)
}

/// Extension — process variation × NBTI: `variation:<sigma>`
/// Monte-Carlo/extreme-value models over the mismatch-sigma range, on
/// a pinned profile whose busiest bank is always-on (the historic
/// "busy" rate) and whose mean sleep is the suite-average 42 %.
pub fn variation_study() -> StudySpec {
    StudySpec::new("Process variation x NBTI")
        .models([
            "variation:0",
            "variation:15",
            "variation:30",
            "variation:45",
        ])
        .policies(["probing"])
        .workload_names(["profile:0,0.56,0.56,0.56"])
        .expect("static profile key")
        .policy_seed(1)
}

/// The trace horizon every preset row simulates: eight macro periods
/// of the suite's traces, long enough for sub-percent idleness
/// stability.
pub const TRACE_CYCLES: u64 = 640_000;

/// One row of the preset table.
pub struct Preset {
    /// The name `study preset <name>` takes.
    pub name: &'static str,
    /// One line saying what the preset regenerates.
    pub description: &'static str,
    /// The studies the row needs, at a configuration; empty for the
    /// physics-only rows.
    pub specs: fn(&ExperimentConfig) -> Vec<StudySpec>,
    /// Writes the row's output from one report per spec, in `specs`
    /// order.
    pub render: fn(&mut Out, &[StudyReport]) -> Result<(), CoreError>,
}

/// Builds [`PRESETS`] from `name: "description", specs, render;`
/// rows.
macro_rules! preset_table {
    ($($name:ident: $description:literal, $specs:expr, $render:expr;)*) => {
        /// Every preset, in paper order, `all` last.
        pub const PRESETS: &[Preset] = &[$(Preset {
            name: stringify!($name),
            description: $description,
            specs: $specs,
            render: $render,
        }),*];
    };
}

preset_table! {
    table1: "Table I: idleness distribution, 4-bank 16 kB cache",
        |cfg| vec![table1(cfg)], |out, r| out.report(one(r)?, views::table1);
    table2: "Table II: Esav / LT0 / LT vs cache size",
        |cfg| vec![table2(cfg)], |out, r| out.report(one(r)?, views::table2);
    table3: "Table III: Esav / LT vs line size",
        |cfg| vec![table3(cfg)], |out, r| out.report(one(r)?, views::table3);
    table4: "Table IV: idleness / LT vs cache size and banks",
        |cfg| vec![table4(cfg)], |out, r| out.report(one(r)?, views::table4);
    claims: "Sec. IV-B1 headline claims, measured vs paper",
        |cfg| vec![claims(cfg)], |out, r| out.report(one(r)?, views::claims);
    rng_error: "Sec. IV-B2 RNG repetition error vs number of updates",
        |_| Vec::new(), |out, _| rng_error(out);
    policy_equivalence: "Sec. IV-B2 Probing vs Scrambling lifetimes",
        |cfg| vec![policy_equivalence(cfg)],
        |out, r| out.report(one(r)?, views::policy_equivalence);
    snm_curves: "read SNM vs time behind the 20 % failure criterion",
        |_| Vec::new(), |out, _| snm_curves(out);
    update_cost: "miss-rate cost of (absurdly) frequent updates",
        |_| Vec::new(), |out, _| update_cost(out);
    variation_study: "process variation x NBTI bank-lifetime quantiles",
        |_| vec![variation_study()], |out, r| {
            out.section("Process variation x NBTI (bank of 37k cells)");
            out.report(one(r)?, views::variation_study)
        };
    ablation_fine_grain: "bank-level vs ref. [7] line-level idleness",
        |cfg| vec![table1(cfg)], |out, r| ablation_fine_grain(out, one(r)?);
    ablation_flip: "cell flipping (ref. [15]) composed with re-indexing",
        |_| Vec::new(), |out, _| ablation_flip(out);
    ablation_gating: "power gating vs voltage scaling sleep",
        |cfg| vec![table1(cfg)], |out, r| ablation_gating(out, one(r)?);
    ablation_graceful: "Sec. III-A2 graceful-degradation alternative",
        |_| Vec::new(), |out, _| ablation_graceful(out);
    ablation_narrow_lfsr: "p-bit vs wide LFSR scrambling bias",
        |cfg| vec![table1(cfg)], |out, r| ablation_narrow_lfsr(out, one(r)?);
    ablation_temperature: "Arrhenius sweep; the re-indexing gain is T-invariant",
        |_| vec![ablation_temperature()], |out, r| out.report(one(r)?, views::ablation_temperature);
    ablation_vlow: "drowsy-rail sweep: aging relief vs retention margin",
        |_| vec![ablation_vlow()], |out, r| out.report(one(r)?, views::ablation_vlow);
    all: "Tables I-IV, the claims, the RNG and policy studies, as one plan",
        |cfg| [table1, table2, table3, table4, claims, policy_equivalence].map(|f| f(cfg)).to_vec(),
        all;
}

/// The preset named `name`.
pub fn find(name: &str) -> Option<&'static Preset> {
    PRESETS.iter().find(|p| p.name == name)
}

impl Preset {
    /// Runs the row at the paper's reference configuration over
    /// [`TRACE_CYCLES`]: plans its specs as one grid on `session`
    /// ([`run_specs`]), then renders them into `out`.
    ///
    /// # Errors
    ///
    /// Returns the first study, model or render error; whatever the
    /// row wrote before it stays in `out`.
    pub fn run(&self, session: &StudySession, out: &mut Out) -> Result<(), CoreError> {
        let reports = run_specs(session, &(self.specs)(&out.cfg))?;
        (self.render)(out, &reports)
    }
}

/// Runs `specs` as one plan: each spec expands once, the grids fold
/// into one union (the fold [`ScenarioSpace::union`] expands with),
/// and the union runs once on `session`, so each distinct cell is
/// simulated and evaluated once and every trace streams through all
/// the geometries any spec wants. Returns one report per spec, in
/// order: the spec's own name and scenarios (ids included), each with
/// the measurement of the union cell it landed on.
///
/// [`ScenarioSpace::union`]: crate::search::ScenarioSpace::union
///
/// # Errors
///
/// Returns the first spec's expansion error or the union run's error.
pub fn run_specs(
    session: &StudySession,
    specs: &[StudySpec],
) -> Result<Vec<StudyReport>, CoreError> {
    let grids = specs
        .iter()
        .map(StudySpec::expand)
        .collect::<Result<Vec<_>, _>>()?;
    let Some((first, rest)) = grids.split_first() else {
        return Ok(Vec::new());
    };
    let mut union = first.clone();
    let mut slices = vec![(0..first.len()).collect::<Vec<_>>()];
    for grid in rest {
        slices.push(union_into(&mut union, grid)?);
    }
    let measured = session.run_grid(&union)?;
    let reports = grids.into_iter().zip(slices).map(|(grid, slice)| {
        let records = (grid.scenarios.into_iter().zip(slice))
            .map(|(scenario, at)| ScenarioRecord {
                scenario,
                ..measured.records()[at].clone()
            })
            .collect();
        StudyReport::from_records(grid.name, records)
    });
    Ok(reports.collect())
}

/// The one report a single-study row renders.
fn one(reports: &[StudyReport]) -> Result<&StudyReport, CoreError> {
    match reports {
        [report] => Ok(report),
        _ => Err(CoreError::Report {
            message: format!("a one-study preset got {} reports", reports.len()),
        }),
    }
}

/// A preset's output: the configuration it runs at, the format it
/// renders in, and the stdout written so far.
pub struct Out {
    cfg: ExperimentConfig,
    format: Format,
    /// The stdout, in `format`.
    pub text: String,
}

impl Out {
    /// An empty output at the paper's reference configuration over
    /// [`TRACE_CYCLES`], rendered in `format`.
    pub fn new(format: Format) -> Self {
        Self {
            cfg: ExperimentConfig::paper_reference().with_trace_cycles(TRACE_CYCLES),
            format,
            text: String::new(),
        }
    }

    /// Writes `view` of `report`.
    fn report(
        &mut self,
        report: &StudyReport,
        view: fn(&StudyReport) -> Result<Table, CoreError>,
    ) -> Result<(), CoreError> {
        self.text
            .push_str(&render::report(report, view, self.format)?);
        self.text.push('\n');
        Ok(())
    }

    fn table(&mut self, t: &Table) {
        self.text.push_str(&render::table(t, self.format));
        self.text.push('\n');
    }

    /// A section rule around a title (the `all` preset's layout).
    fn section(&mut self, title: &str) {
        let rule = "=".repeat(72);
        self.text.push_str(&format!("\n{rule}\n{title}\n{rule}\n"));
    }
}

/// The update counts the RNG study samples.
const RNG_DRAWS: [u64; 7] = [16, 64, 256, 1024, 4096, 16384, 65536];

/// The aging analysis calibrated to the paper's 2.93-year cell.
fn aging() -> AgingAnalysis {
    AgingAnalysis::new(calibration::reference_45nm().clone())
}

fn benchmark(name: &str) -> Result<WorkloadProfile, CoreError> {
    suite::by_name(name).ok_or_else(|| CoreError::Unknown {
        kind: "workload",
        name: name.to_string(),
        known: suite::mediabench()
            .iter()
            .map(|p| p.name().to_string())
            .collect::<Vec<_>>()
            .join(", "),
    })
}

/// Simulates `cycles` of `profile`'s trace at `seed` on `geom` under
/// the registry policy `policy`, streamed through [`simulate_fanout`]
/// (bit-equal to the scalar `PartitionedCache::simulate`).
fn simulate(
    geom: CacheGeometry,
    profile: &WorkloadProfile,
    seed: u64,
    cycles: u64,
    update: UpdateSchedule,
    policy: &str,
) -> Result<SimOutcome, CoreError> {
    let cache = PartitionedCache::new(geom, policy, PolicyRegistry::global())?;
    let mut target = [SimTarget::Level(cache.simulator()?)];
    simulate_fanout(&mut profile.trace(seed), &mut target, Some(cycles), update)?;
    let [target] = target;
    Ok(target.finish().0)
}

/// Sec. IV-B2: RNG repetition error vs number of updates, for the
/// Scrambling LFSR against an ideal uniform generator. The paper argues
/// the error of a uniform RNG shrinks as `1/sqrt(N)` and is therefore
/// negligible over a lifetime of updates; a maximal-length LFSR is even
/// better (its counts are exactly balanced every period).
fn rng_error_table(bank_bits: u32, draws: &[u64]) -> Result<Table, CoreError> {
    let m = 1u32 << bank_bits;
    let mut t = Table::new(
        format!("RNG repetition error vs updates (M = {m})"),
        vec![
            "N updates".into(),
            "LFSR err".into(),
            "uniform err".into(),
            "1/sqrt(N)".into(),
        ],
    );
    for &n in draws {
        // LFSR mask stream.
        let mut lfsr = Lfsr::new(bank_bits, 1)?;
        let mut counts = vec![0u64; m as usize];
        for _ in 0..n {
            counts[(lfsr.next_value() as u32 & (m - 1)) as usize] += 1;
        }
        let lfsr_err = rel_error(&counts[1..], n); // 0 never drawn
                                                   // Ideal uniform generator over all M values.
        let mut rng = SplitMix64::new(0x5eed ^ n);
        let mut counts = vec![0u64; m as usize];
        for _ in 0..n {
            counts[rng.next_below(m as u64) as usize] += 1;
        }
        let uni_err = rel_error(&counts, n);
        t.push_row(vec![
            n.to_string(),
            format!("{lfsr_err:.4}"),
            format!("{uni_err:.4}"),
            format!("{:.4}", 1.0 / (n as f64).sqrt()),
        ]);
    }
    t.push_note("uniform error tracks 1/sqrt(N); the LFSR is exactly balanced each period");
    Ok(t)
}

/// Root-mean-square relative deviation of `counts` from a uniform share
/// of `n` draws.
fn rel_error(counts: &[u64], n: u64) -> f64 {
    let ideal = n as f64 / counts.len() as f64;
    if ideal == 0.0 {
        return 0.0;
    }
    let ss: f64 = counts
        .iter()
        .map(|&c| {
            let d = c as f64 - ideal;
            d * d
        })
        .sum();
    (ss / counts.len() as f64).sqrt() / ideal
}

fn rng_error(out: &mut Out) -> Result<(), CoreError> {
    for bits in [2u32, 3, 4] {
        out.table(&rng_error_table(bits, &RNG_DRAWS)?);
    }
    Ok(())
}

/// SNM degradation trajectories: read SNM vs time for several sleep
/// fractions, the curve family behind the paper's "lifetime = 20 % SNM
/// degradation" criterion.
fn snm_curves(out: &mut Out) -> Result<(), CoreError> {
    let solver = LifetimeSolver::calibrated(CellDesign::default_45nm(), 2.93)?;
    let fresh = solver.fresh_snm();
    let failure = solver.failure_snm();

    let sleeps = [0.0, 0.25, 0.5, 0.75, 0.95];
    let mut t = Table::new(
        "Read SNM vs time (mV), by sleep fraction (drowsy sleep, p0 = 0.5)",
        std::iter::once("years".to_string())
            .chain(sleeps.iter().map(|s| format!("S={s:.2}")))
            .collect(),
    );
    for year in [0.0f64, 0.5, 1.0, 2.0, 2.93, 4.0, 6.0, 8.0, 12.0] {
        let mut row = vec![format!("{year:.2}")];
        for &s in &sleeps {
            let p = StressProfile::new(0.5, s, SleepMode::VoltageScaled)?;
            let snm = solver.snm_after(&p, year)?;
            let marker = if snm < failure { " !" } else { "" };
            row.push(format!("{:.1}{marker}", 1000.0 * snm));
        }
        t.push_row(row);
    }
    t.push_note(format!(
        "fresh SNM {:.1} mV; failure below {:.1} mV (20 % degradation); '!' marks dead cells",
        1000.0 * fresh,
        1000.0 * failure
    ));
    out.table(&t);
    Ok(())
}

/// The cost of the `update` signal (paper Sec. III-A3): every update
/// flushes the cache, so this sweeps absurdly aggressive update periods
/// to show how far the paper's "nil cost" argument stretches.
fn update_cost(out: &mut Out) -> Result<(), CoreError> {
    let cfg = out.cfg;
    let geom = cfg.geometry()?;
    let mut t = Table::new(
        "Miss-rate cost of update frequency (16 kB, M = 4, Probing)",
        vec![
            "update period (cycles)".into(),
            "updates".into(),
            "miss rate".into(),
            "delta vs never".into(),
        ],
    );
    let profile = benchmark("ispell")?;
    let run = |update| {
        simulate(
            geom,
            &profile,
            cfg.seed,
            cfg.trace_cycles,
            update,
            "probing",
        )
    };
    let baseline = run(UpdateSchedule::Never)?;
    t.push_row(vec![
        "never".into(),
        "0".into(),
        format!("{:.4}", baseline.miss_rate()),
        "-".into(),
    ]);
    for period in [320_000u64, 80_000, 20_000, 5_000] {
        let sim = run(UpdateSchedule::EveryCycles(period))?;
        t.push_row(vec![
            period.to_string(),
            sim.updates.to_string(),
            format!("{:.4}", sim.miss_rate()),
            format!("{:+.4}", sim.miss_rate() - baseline.miss_rate()),
        ]);
    }
    t.push_note(
        "real updates are ~daily (~1e14 cycles apart): even the 5k-cycle torture row \
         bounds the refill cost at one cache of misses per flush",
    );
    out.table(&t);
    Ok(())
}

/// What bank granularity gives up against ref. \[7\]'s line-level
/// dynamic indexing: line granularity reaches ideal idleness but must
/// modify the SRAM internals, the paper's banks are standard blocks.
fn ablation_fine_grain(out: &mut Out, table1: &StudyReport) -> Result<(), CoreError> {
    let cfg = out.cfg;
    let aging = aging();
    let geom = cfg.geometry()?;
    let study = FineGrainStudy::new(geom)?;

    let mut t = Table::new(
        "Bank-level (this paper) vs line-level (ref [7]) lifetimes, 16 kB",
        vec![
            "bench".into(),
            "bank sleep %".into(),
            "line sleep %".into(),
            "LT bank (M=4)".into(),
            "LT line (ideal)".into(),
            "gap %".into(),
        ],
    );
    for r in table1.records() {
        let p = benchmark(&r.scenario.workload)?;
        let bank_lt = aging.cache_lifetime(&r.sleep_fractions, p.p0(), "probing", 1)?;
        let fine = study.measure(&p, cfg.trace_cycles, r.scenario.trace_seed)?;
        let line_lt = study.ideal_lifetime(&aging, &fine, p.p0())?;
        t.push_row(vec![
            p.name().to_string(),
            format!("{:.1}", 100.0 * Reduce::Mean.apply(&r.sleep_fractions)?),
            format!("{:.1}", 100.0 * fine.avg_sleep),
            years(bank_lt),
            years(line_lt),
            format!("{:+.0}", 100.0 * (line_lt - bank_lt) / bank_lt),
        ]);
    }
    t.push_note(
        "line granularity is the idleness upper bound; the paper accepts the gap \
         to keep standard memory-compiler blocks (no SRAM internals touched)",
    );
    out.table(&t);
    Ok(())
}

/// Cell flipping (ref. \[15\]) composed with partitioning: with skewed
/// stored values, value balancing and idleness balancing attack
/// independent aging factors.
fn ablation_flip(out: &mut Out) -> Result<(), CoreError> {
    let aging = aging();
    let sleep = [0.9, 0.6, 0.3, 0.0]; // a representative uneven profile
    let flip = CellFlip::ideal();

    let mut t = Table::new(
        "Ablation: cell flipping x re-indexing (uneven idleness, skewed data)",
        vec![
            "p0".into(),
            "neither".into(),
            "flip only".into(),
            "reindex only".into(),
            "both".into(),
        ],
    );
    for p0 in [0.5, 0.7, 0.9, 1.0] {
        t.push_row(vec![
            format!("{p0:.1}"),
            years(aging.cache_lifetime(&sleep, p0, "identity", 1)?),
            years(flip.cache_lifetime(&aging, &sleep, p0, "identity", 1)?),
            years(aging.cache_lifetime(&sleep, p0, "probing", 1)?),
            years(flip.cache_lifetime(&aging, &sleep, p0, "probing", 1)?),
        ]);
    }
    t.push_note(format!(
        "flip-bit storage overhead: {:.1} % of the data array",
        100.0 * flip.storage_overhead()
    ));
    out.table(&t);
    Ok(())
}

/// Power-gating sleep against the paper's voltage scaling: gating stops
/// NBTI aging during sleep, so this is the lifetime it would buy on the
/// same measured idleness.
fn ablation_gating(out: &mut Out, table1: &StudyReport) -> Result<(), CoreError> {
    let drowsy = aging();
    let gated = AgingAnalysis::new(drowsy.solver().clone()).with_mode(SleepMode::power_gated());

    let mut t = Table::new(
        "Ablation: sleep mechanism (16 kB, M = 4, Probing)",
        vec![
            "bench".into(),
            "LT drowsy".into(),
            "LT gated".into(),
            "gated gain %".into(),
        ],
    );
    for r in table1.records() {
        let p = benchmark(&r.scenario.workload)?;
        let sleep = &r.sleep_fractions;
        let lt_vs = drowsy.cache_lifetime(sleep, p.p0(), "probing", 1)?;
        let lt_pg = gated.cache_lifetime(sleep, p.p0(), "probing", 1)?;
        t.push_row(vec![
            p.name().to_string(),
            years(lt_vs),
            years(lt_pg),
            format!("{:+.1}", 100.0 * (lt_pg - lt_vs) / lt_vs),
        ]);
    }
    t.push_note("power gating is state-destroying and needs cell access the paper's flow lacks");
    out.table(&t);
    Ok(())
}

/// The Sec. III-A2 "graceful degradation" alternative the paper rejects:
/// the failure timeline and miss-rate collapse as aged banks switch
/// off, next to the re-indexed cache's single, later failure.
fn ablation_graceful(out: &mut Out) -> Result<(), CoreError> {
    let cfg = out.cfg;
    let aging = aging();
    let geom = cfg.geometry()?;
    for name in ["sha", "adpcm.dec", "dijkstra"] {
        let p = benchmark(name)?;
        let sim = simulate(
            geom,
            &p,
            cfg.seed,
            cfg.trace_cycles,
            UpdateSchedule::Never,
            "identity",
        )?;
        let sleep = sim.sleep_fraction_all();
        let stages =
            GracefulDegradation::new(geom, 160_000)?.timeline(&p, &sleep, &aging, cfg.seed)?;
        let reindexed = aging.cache_lifetime(&sleep, p.p0(), "probing", 1)?;

        let mut t = Table::new(
            format!("Graceful degradation timeline: {name}"),
            vec!["from year".into(), "alive banks".into(), "miss rate".into()],
        );
        for s in &stages {
            t.push_row(vec![
                years(s.starts_at_years),
                s.alive_banks.to_string(),
                format!("{:.3}", s.miss_rate),
            ]);
        }
        t.push_note(format!(
            "re-indexed cache instead keeps full capacity until {} years",
            years(reindexed)
        ));
        out.table(&t);
    }
    Ok(())
}

/// The literal p-bit LFSR of Fig. 3b against a wide register: a
/// maximal-length p-bit LFSR never emits the zero mask, so a bank never
/// hosts its own traffic, which costs part of the re-indexing benefit
/// at small M. The reproduction defaults to the wide (16-bit) register.
fn ablation_narrow_lfsr(out: &mut Out, table1: &StudyReport) -> Result<(), CoreError> {
    let cfg = out.cfg;
    let aging = aging();
    let p_bits = cfg.banks.trailing_zeros();
    let lifetime_with = |sleep: &[f64], p0: f64, mut mapping: Box<dyn BankMapping>| {
        aging.cache_lifetime_with(sleep, p0, mapping.as_mut())
    };

    let mut t = Table::new(
        format!("Ablation: scrambling LFSR width (M = {})", cfg.banks),
        vec![
            "bench".into(),
            "probing".into(),
            format!("narrow ({p_bits}-bit)"),
            "wide (16-bit)".into(),
            "narrow loss %".into(),
        ],
    );
    for r in table1.records() {
        let p = benchmark(&r.scenario.workload)?;
        let sleep = &r.sleep_fractions;
        let probing = aging.cache_lifetime(sleep, p.p0(), "probing", 1)?;
        let narrow = lifetime_with(
            sleep,
            p.p0(),
            Box::new(Scrambling::with_lfsr_width(cfg.banks, p_bits, 1)?),
        )?;
        let wide = lifetime_with(sleep, p.p0(), Box::new(Scrambling::new(cfg.banks, 1)?))?;
        t.push_row(vec![
            p.name().to_string(),
            years(probing),
            years(narrow),
            years(wide),
            format!("{:+.1}", 100.0 * (narrow - wide) / wide),
        ]);
    }
    t.push_note("the narrow register's never-zero mask skips self-mapping; wide ~ probing");
    out.table(&t);
    Ok(())
}

/// The paper-table subset, in paper order, from one plan: Table II's
/// 16 kB column is Table I's grid, Table IV's 4-bank row is Table II's,
/// the claims are Table II whole and the policy study re-uses Table
/// I's simulations under a second policy, so the union holds 198
/// distinct cells over 180 simulations.
fn all(out: &mut Out, reports: &[StudyReport]) -> Result<(), CoreError> {
    let [t1, t2, t3, t4, claims, policies] = reports else {
        return Err(CoreError::Report {
            message: format!("`all` renders 6 reports, got {}", reports.len()),
        });
    };
    out.section("Table I - idleness distribution (16 kB, 16 B lines, M = 4)");
    out.report(t1, views::table1)?;
    out.section("Table II - Esav / LT0 / LT vs cache size");
    out.report(t2, views::table2)?;
    out.section("Table III - Esav / LT vs line size");
    out.report(t3, views::table3)?;
    out.section("Table IV - idleness / LT vs cache size and banks");
    out.report(t4, views::table4)?;
    out.section("Headline claims (Sec. IV-B1)");
    out.report(claims, views::claims)?;
    out.section("RNG repetition error (Sec. IV-B2)");
    out.table(&rng_error_table(2, &RNG_DRAWS)?);
    out.section("Probing vs Scrambling (Sec. IV-B2)");
    out.report(policies, views::policy_equivalence)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_expand_to_expected_grid_sizes() {
        let cfg = ExperimentConfig::paper_reference();
        let expected: &[(&str, &[usize])] = &[
            ("table1", &[18]),
            ("table2", &[3 * 18]),
            ("table3", &[2 * 18]),
            ("table4", &[9 * 18]),
            ("claims", &[3 * 18]),
            ("rng_error", &[]),
            ("policy_equivalence", &[2 * 18]),
            ("snm_curves", &[]),
            ("update_cost", &[]),
            ("variation_study", &[4]),
            ("ablation_fine_grain", &[18]),
            ("ablation_flip", &[]),
            ("ablation_gating", &[18]),
            ("ablation_graceful", &[]),
            ("ablation_narrow_lfsr", &[18]),
            ("ablation_temperature", &[5]),
            ("ablation_vlow", &[2 * 5]),
            ("all", &[18, 3 * 18, 2 * 18, 9 * 18, 3 * 18, 2 * 18]),
        ];
        assert_eq!(PRESETS.len(), expected.len());
        for (row, (name, sizes)) in PRESETS.iter().zip(expected) {
            assert_eq!(row.name, *name);
            let got: Vec<usize> = (row.specs)(&cfg)
                .iter()
                .map(|spec| spec.expand().unwrap().len())
                .collect();
            assert_eq!(got, *sizes, "{name}");
        }
    }

    #[test]
    fn ablation_presets_compose_canonical_model_keys() {
        let grid = ablation_vlow().expand().unwrap();
        let models: Vec<&str> = grid.scenarios().iter().map(|s| s.model.as_str()).collect();
        // The paper's 0.75 V point canonicalizes back to the reference
        // keys, so those two scenarios share the default calibrations.
        assert!(models.contains(&"nbti-45nm"));
        assert!(models.contains(&"drv"));
        assert!(models.contains(&"nbti:vlow=0.55"));
        assert!(models.contains(&"drv:vlow=0.95"));

        let temps = ablation_temperature().expand().unwrap();
        assert!(temps
            .scenarios()
            .iter()
            .all(|s| s.model.starts_with("nbti:temp=")));
    }

    #[test]
    fn rng_error_decays_with_n() {
        let t = rng_error_table(2, &[64, 4096]).unwrap();
        let err_small: f64 = t.cell(0, 2).unwrap().parse().unwrap();
        let err_large: f64 = t.cell(1, 2).unwrap().parse().unwrap();
        assert!(
            err_large < err_small,
            "uniform error must decay: {err_small} -> {err_large}"
        );
        let lfsr_large: f64 = t.cell(1, 1).unwrap().parse().unwrap();
        assert!(lfsr_large <= err_large, "LFSR is at least as balanced");
    }

    #[test]
    fn presets_keep_the_historic_seeds() {
        let cfg = ExperimentConfig::paper_reference();
        let grid = table2(&cfg).expand().unwrap();
        for s in grid.scenarios() {
            assert_eq!(s.trace_seed, cfg.seed + s.workload_index as u64);
            assert_eq!(s.policy_seed, 1);
        }
    }
}
