//! The preset table behind `study preset <name>`: one row per paper
//! table, headline claim, RNG and policy study, and ablation.
//!
//! Each row's run function writes the preset's stdout into an [`Out`],
//! so the verb, the tests and the `all` preset share one code path.
//! The study-backed rows run a [`presets`] spec on the caller's
//! [`StudySession`] and render it through a [`views`] function; the
//! physics-only rows build their tables directly. `--format` applies to
//! both: [`Format::Text`] is the historic stdout, byte for byte.

use crate::default_config;
use aging_cache::aging::AgingAnalysis;
use aging_cache::analysis::Reduce;
use aging_cache::arch::{PartitionedCache, UpdateSchedule};
use aging_cache::fine_grain::FineGrainStudy;
use aging_cache::flip::CellFlip;
use aging_cache::graceful::GracefulDegradation;
use aging_cache::lfsr::Lfsr;
use aging_cache::policy::Scrambling;
use aging_cache::render::{self, Format};
use aging_cache::report::{years, Table};
use aging_cache::session::StudySession;
use aging_cache::study::{StudyReport, StudySpec};
use aging_cache::{presets, views, CoreError, PolicyRegistry};
use cache_sim::{BankMapping, CacheGeometry, SimOutcome};
use nbti_model::{calibration, CellDesign, LifetimeSolver, SleepMode, StressProfile};
use trace_synth::rng::SplitMix64;
use trace_synth::{suite, WorkloadProfile};

/// One row of the preset table.
pub struct Preset {
    /// The name `study preset <name>` takes.
    pub name: &'static str,
    /// One line saying what the preset regenerates.
    pub description: &'static str,
    /// Runs the preset, writing its stdout into the [`Out`].
    pub run: fn(&mut Out<'_>) -> Result<(), CoreError>,
}

/// Builds [`PRESETS`] from `name: "description"` rows, each name also
/// the run function's.
macro_rules! preset_table {
    ($($name:ident: $description:literal,)*) => {
        /// Every preset, in paper order, `all` last.
        pub const PRESETS: &[Preset] = &[$(Preset {
            name: stringify!($name),
            description: $description,
            run: $name,
        }),*];
    };
}

preset_table! {
    table1: "Table I: idleness distribution, 4-bank 16 kB cache",
    table2: "Table II: Esav / LT0 / LT vs cache size",
    table3: "Table III: Esav / LT vs line size",
    table4: "Table IV: idleness / LT vs cache size and banks",
    claims: "Sec. IV-B1 headline claims, measured vs paper",
    rng_error: "Sec. IV-B2 RNG repetition error vs number of updates",
    policy_equivalence: "Sec. IV-B2 Probing vs Scrambling lifetimes",
    snm_curves: "read SNM vs time behind the 20 % failure criterion",
    update_cost: "miss-rate cost of (absurdly) frequent updates",
    variation_study: "process variation x NBTI bank-lifetime quantiles",
    ablation_fine_grain: "bank-level vs ref. [7] line-level idleness",
    ablation_flip: "cell flipping (ref. [15]) composed with re-indexing",
    ablation_gating: "power gating vs voltage scaling sleep",
    ablation_graceful: "Sec. III-A2 graceful-degradation alternative",
    ablation_narrow_lfsr: "p-bit vs wide LFSR scrambling bias",
    ablation_temperature: "Arrhenius sweep; the re-indexing gain is T-invariant",
    ablation_vlow: "drowsy-rail sweep: aging relief vs retention margin",
    all: "Tables I-IV, the claims, the RNG and policy studies, on one session",
}

/// The preset named `name`.
pub fn find(name: &str) -> Option<&'static Preset> {
    PRESETS.iter().find(|p| p.name == name)
}

/// A preset's run: the session it runs on, the format it renders in,
/// and the stdout written so far.
pub struct Out<'a> {
    session: &'a StudySession,
    format: Format,
    /// The stdout, in `format`.
    pub text: String,
}

impl<'a> Out<'a> {
    /// An empty output for a run on `session`, rendered in `format`.
    pub fn new(session: &'a StudySession, format: Format) -> Self {
        Self {
            session,
            format,
            text: String::new(),
        }
    }

    /// Runs `spec` on the session and writes `view` of the report.
    fn study(
        &mut self,
        spec: &StudySpec,
        view: fn(&StudyReport) -> Result<Table, CoreError>,
    ) -> Result<(), CoreError> {
        let report = self.session.run(spec)?;
        self.text
            .push_str(&render::report(&report, view, self.format)?);
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
/// the registry policy `policy`, on the batched fast path (bit-equal to
/// the scalar `PartitionedCache::simulate`).
fn simulate(
    geom: CacheGeometry,
    profile: &WorkloadProfile,
    seed: u64,
    cycles: u64,
    update: UpdateSchedule,
    policy: &str,
) -> Result<SimOutcome, CoreError> {
    PartitionedCache::new(geom, policy, PolicyRegistry::global().clone())?
        .simulate_batched(profile.trace(seed).take(cycles as usize), update)
}

fn table1(out: &mut Out<'_>) -> Result<(), CoreError> {
    out.study(&presets::table1(&default_config()), views::table1)
}

fn table2(out: &mut Out<'_>) -> Result<(), CoreError> {
    out.study(&presets::table2(&default_config()), views::table2)
}

fn table3(out: &mut Out<'_>) -> Result<(), CoreError> {
    out.study(&presets::table3(&default_config()), views::table3)
}

fn table4(out: &mut Out<'_>) -> Result<(), CoreError> {
    out.study(&presets::table4(&default_config()), views::table4)
}

fn claims(out: &mut Out<'_>) -> Result<(), CoreError> {
    out.study(&presets::claims(&default_config()), views::claims)
}

fn policy_equivalence(out: &mut Out<'_>) -> Result<(), CoreError> {
    let spec = presets::policy_equivalence(&default_config());
    out.study(&spec, views::policy_equivalence)
}

fn ablation_temperature(out: &mut Out<'_>) -> Result<(), CoreError> {
    out.study(
        &presets::ablation_temperature(),
        views::ablation_temperature,
    )
}

fn ablation_vlow(out: &mut Out<'_>) -> Result<(), CoreError> {
    out.study(&presets::ablation_vlow(), views::ablation_vlow)
}

fn variation_study(out: &mut Out<'_>) -> Result<(), CoreError> {
    out.section("Process variation x NBTI (bank of 37k cells)");
    out.study(&presets::variation_study(), views::variation_study)
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

fn rng_error(out: &mut Out<'_>) -> Result<(), CoreError> {
    for bits in [2u32, 3, 4] {
        out.table(&rng_error_table(bits, &RNG_DRAWS)?);
    }
    Ok(())
}

/// SNM degradation trajectories: read SNM vs time for several sleep
/// fractions, the curve family behind the paper's "lifetime = 20 % SNM
/// degradation" criterion.
fn snm_curves(out: &mut Out<'_>) -> Result<(), CoreError> {
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
fn update_cost(out: &mut Out<'_>) -> Result<(), CoreError> {
    let cfg = default_config();
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
fn ablation_fine_grain(out: &mut Out<'_>) -> Result<(), CoreError> {
    let cfg = default_config();
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
    for r in out.session.run(&presets::table1(&cfg))?.records() {
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
fn ablation_flip(out: &mut Out<'_>) -> Result<(), CoreError> {
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
fn ablation_gating(out: &mut Out<'_>) -> Result<(), CoreError> {
    let cfg = default_config();
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
    for r in out.session.run(&presets::table1(&cfg))?.records() {
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
fn ablation_graceful(out: &mut Out<'_>) -> Result<(), CoreError> {
    let cfg = default_config();
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
fn ablation_narrow_lfsr(out: &mut Out<'_>) -> Result<(), CoreError> {
    let cfg = default_config();
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
    for r in out.session.run(&presets::table1(&cfg))?.records() {
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

/// The paper-table subset, in paper order, on one session: its
/// simulation memo shares the trace simulations the tables have in
/// common (Table II's 16 kB column is Table I's grid, Table IV's 4-bank
/// row is Table II's, the claims re-run Table II whole, the policy
/// study re-uses Table I's simulations under a second policy). Fails
/// if the memo shared nothing.
fn all(out: &mut Out<'_>) -> Result<(), CoreError> {
    out.section("Table I - idleness distribution (16 kB, 16 B lines, M = 4)");
    table1(out)?;
    out.section("Table II - Esav / LT0 / LT vs cache size");
    table2(out)?;
    out.section("Table III - Esav / LT vs line size");
    table3(out)?;
    out.section("Table IV - idleness / LT vs cache size and banks");
    table4(out)?;
    out.section("Headline claims (Sec. IV-B1)");
    claims(out)?;
    out.section("RNG repetition error (Sec. IV-B2)");
    out.table(&rng_error_table(2, &RNG_DRAWS)?);
    out.section("Probing vs Scrambling (Sec. IV-B2)");
    policy_equivalence(out)?;

    let stats = out.session.stats();
    eprintln!(
        "[session] scenarios: {}, simulations: {} ({} shared via the session memo), \
         trace opens: {}",
        stats.scenarios, stats.simulations, stats.sim_memo_hits, stats.trace_opens
    );
    if stats.simulations >= stats.scenarios {
        return Err(CoreError::Report {
            message: format!(
                "session memo failed to share work: {} simulations for {} scenarios",
                stats.simulations, stats.scenarios
            ),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_error_decays_with_n() {
        let t = rng_error_table(2, &[64, 4096]).unwrap();
        let rows = t.rows();
        let err_small: f64 = rows[0][2].parse().unwrap();
        let err_large: f64 = rows[1][2].parse().unwrap();
        assert!(
            err_large < err_small,
            "uniform error must decay: {err_small} -> {err_large}"
        );
        let lfsr_large: f64 = rows[1][1].parse().unwrap();
        assert!(lfsr_large <= err_large, "LFSR is at least as balanced");
    }
}
