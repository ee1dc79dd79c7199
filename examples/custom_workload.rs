//! Builds a custom synthetic workload from scratch — regions, phase
//! schedule, patterns — and a custom indexing policy registered from
//! user code, then runs both through the Study API. This is the path a
//! user takes to evaluate the architecture on *their* traffic rather
//! than the MediaBench models.
//!
//! ```sh
//! cargo run --release --example custom_workload
//! ```

use nbti_cache_repro::arch::session::StudySession;
use nbti_cache_repro::arch::{PolicyRegistry, Probing, StudySpec};
use nbti_cache_repro::sim::BankMapping;
use nbti_cache_repro::traces::{AccessPattern, Region, ScheduleBuilder, WorkloadProfile};

/// A user-defined policy: probing that skips ahead by a seed-derived
/// stride (any odd stride is coprime to a power-of-two M, so the window
/// fairness of plain probing is preserved).
struct StridedProbing {
    stride: u32,
    banks: u32,
    offset: u32,
}

impl BankMapping for StridedProbing {
    fn map_bank(&self, logical: u32, banks: u32) -> u32 {
        (logical + self.offset) & (banks - 1)
    }

    fn update(&mut self) {
        self.offset = (self.offset + self.stride) & (self.banks - 1);
    }

    fn name(&self) -> &str {
        "strided-probing"
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A packet-processing flavour: one hot flow table, one streaming
    // payload buffer, two rarely-touched control regions.
    let quarter = 4096u64;
    let regions = [
        // Bank 0: flow table, heavily skewed lookups.
        vec![Region::new(0, 2048, AccessPattern::Hotspot { hot: 0.2 })],
        // Bank 1: payload streaming.
        vec![Region::new(
            quarter,
            2048,
            AccessPattern::Sequential { stride: 16 },
        )],
        // Bank 2: statistics counters, random scattered updates.
        vec![Region::new(2 * quarter, 1024, AccessPattern::Random)],
        // Bank 3: config block, touched rarely.
        vec![Region::new(3 * quarter, 512, AccessPattern::Random)],
    ];
    // Banks 0-1 run hot; bank 2 idles 70 %, bank 3 idles 95 % of slots.
    let schedule = ScheduleBuilder::new([0.05, 0.10, 0.70, 0.95]).build();
    let profile = WorkloadProfile::new(
        "packet-pipeline",
        regions,
        schedule,
        2,         // two traffic epochs (e.g. two tenant contexts)
        16 * 1024, // one cache period apart
        0.10,      // lingering cross-epoch traffic
        0.40,      // write-heavy (counter updates)
        0.5,       // balanced stored values
    );

    // Register the custom policy next to the built-ins.
    let mut registry = PolicyRegistry::builtin();
    registry.register_fn(
        "strided-probing",
        "probing with a seed-derived odd stride (user example)",
        |banks, seed| {
            Probing::new(banks)?; // reuse the built-in bank-count validation
            Ok(Box::new(StridedProbing {
                stride: ((seed as u32) | 1) & (banks - 1) | 1,
                banks,
                offset: 0,
            }))
        },
    )?;

    // One workload, three policies, one declarative run.
    let spec = StudySpec::new("packet pipeline study")
        .registry(registry)
        .workloads([profile])
        .policies(["identity", "probing", "strided-probing"])
        .base_seed(2024);
    let report = StudySession::new().run(&spec)?;

    let baseline = &report.records()[0];
    println!("workload         : {}", baseline.scenario.workload);
    println!("miss rate        : {:.3}", baseline.miss_rate);
    println!(
        "useful idleness  : {:?}",
        baseline
            .useful_idleness
            .iter()
            .map(|v| format!("{:.1}%", v * 100.0))
            .collect::<Vec<_>>()
    );
    println!("energy saving    : {:.1} %", 100.0 * baseline.esav);
    println!();
    for r in report.records() {
        println!(
            "{:>16} : LT {:.2} years (+{:.0} % over no re-indexing)",
            r.scenario.policy,
            r.lt_years(),
            100.0 * (r.lt_years() - r.lt0_years()) / r.lt0_years()
        );
    }
    Ok(())
}
