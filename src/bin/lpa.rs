//! `lpa` — command-line interface to the learned partitioning advisor.
//!
//! ```text
//! lpa schemas
//! lpa sql     --benchmark ssb "SELECT …"
//! lpa advise  --benchmark tpcch [--engine pgxl|systemx] [--online]
//!             [--episodes N] [--sf F] [--save policy.lpa]
//! lpa baselines --benchmark ssb [--engine pgxl|systemx]
//! ```

use lpa::advisor::OnlineOptimizations;
use lpa::cluster::direct_deploy;
use lpa::prelude::*;
use lpa::store::{atomic_write, capture_advisor, encode_checkpoint, Checkpoint};
use std::collections::HashMap;
use std::path::Path;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        usage();
        return ExitCode::FAILURE;
    };
    let result = match cmd.as_str() {
        "schemas" => cmd_schemas(),
        "sql" => cmd_sql(&args[1..]),
        "advise" => cmd_advise(&args[1..]),
        "baselines" => cmd_baselines(&args[1..]),
        "help" | "--help" | "-h" => {
            usage();
            Ok(())
        }
        other => Err(format!("unknown command `{other}`")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            usage();
            ExitCode::FAILURE
        }
    }
}

fn usage() {
    eprintln!(
        "lpa — learned partitioning advisor

USAGE:
  lpa schemas
      List the built-in benchmark schemas and workloads.

  lpa sql --benchmark <ssb|tpcds|tpcch|micro> \"SELECT …\"
      Parse a SQL statement and show the join graph the advisor sees.

  lpa advise --benchmark <name> [--engine pgxl|systemx] [--sf F]
             [--episodes N] [--tmax N] [--online yes] [--explain yes]
             [--save FILE]
      Train an advisor (offline; --online adds refinement on a sampled
      cluster) and print its suggested partitioning; --save writes the
      trained session as an lpa-store checkpoint.

  lpa baselines --benchmark <name> [--engine pgxl|systemx] [--sf F]
      Evaluate the DBA heuristics and the minimum-optimizer designer on
      the simulated cluster."
    );
}

/// Minimal `--flag value` / positional parser.
fn parse_flags(args: &[String]) -> Result<(HashMap<String, String>, Vec<String>), String> {
    let mut flags = HashMap::new();
    let mut positional = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let a = &args[i];
        if let Some(name) = a.strip_prefix("--") {
            let value = args
                .get(i + 1)
                .ok_or_else(|| format!("missing value for --{name}"))?;
            flags.insert(name.to_string(), value.clone());
            i += 2;
        } else {
            positional.push(a.clone());
            i += 1;
        }
    }
    Ok((flags, positional))
}

struct BenchmarkSpec {
    name: &'static str,
    schema: fn(f64) -> Result<Schema, lpa::schema::SchemaError>,
    workload: fn(&Schema) -> Result<Workload, lpa::workload::QueryError>,
    default_sf: f64,
    class: SchemaClass,
}

const BENCHMARKS: &[BenchmarkSpec] = &[
    BenchmarkSpec {
        name: "ssb",
        schema: lpa::schema::ssb::schema,
        workload: lpa::workload::ssb::workload,
        default_sf: 0.01,
        class: SchemaClass::Star,
    },
    BenchmarkSpec {
        name: "tpcds",
        schema: lpa::schema::tpcds::schema,
        workload: lpa::workload::tpcds::workload,
        default_sf: 0.01,
        class: SchemaClass::Star,
    },
    BenchmarkSpec {
        name: "tpcch",
        schema: lpa::schema::tpcch::schema,
        workload: lpa::workload::tpcch::workload,
        default_sf: 0.002,
        class: SchemaClass::Complex,
    },
    BenchmarkSpec {
        name: "micro",
        schema: lpa::schema::microbench::schema,
        workload: lpa::workload::microbench::workload,
        default_sf: 0.05,
        class: SchemaClass::Star,
    },
];

fn benchmark(flags: &HashMap<String, String>) -> Result<&'static BenchmarkSpec, String> {
    let name = flags
        .get("benchmark")
        .ok_or("missing --benchmark (ssb|tpcds|tpcch|micro)")?;
    BENCHMARKS
        .iter()
        .find(|b| b.name == name.as_str())
        .ok_or_else(|| format!("unknown benchmark `{name}`"))
}

fn engine_of(flags: &HashMap<String, String>) -> Result<EngineProfile, String> {
    match flags.get("engine").map(String::as_str) {
        None | Some("pgxl") => Ok(EngineProfile::pgxl()),
        Some("systemx") => Ok(EngineProfile::system_x()),
        Some(other) => Err(format!("unknown engine `{other}` (pgxl|systemx)")),
    }
}

fn sf_of(flags: &HashMap<String, String>, spec: &BenchmarkSpec) -> Result<f64, String> {
    match flags.get("sf") {
        None => Ok(spec.default_sf),
        Some(s) => s.parse::<f64>().map_err(|_| format!("bad --sf `{s}`")),
    }
}

fn cmd_schemas() -> Result<(), String> {
    println!(
        "{:<8} {:>7} {:>6} {:>8} {:>14}",
        "name", "tables", "edges", "queries", "bytes @default"
    );
    for spec in BENCHMARKS {
        let schema = (spec.schema)(spec.default_sf).expect("benchmark schema builds");
        let workload = (spec.workload)(&schema).expect("benchmark workload builds");
        println!(
            "{:<8} {:>7} {:>6} {:>8} {:>14}",
            spec.name,
            schema.tables().len(),
            schema.edges().len(),
            workload.queries().len(),
            schema.total_bytes()
        );
    }
    Ok(())
}

fn cmd_sql(args: &[String]) -> Result<(), String> {
    let (flags, positional) = parse_flags(args)?;
    let spec = benchmark(&flags)?;
    let sql = positional.first().ok_or("missing SQL string")?;
    let schema = (spec.schema)(sf_of(&flags, spec)?).expect("benchmark schema builds");
    let q = lpa::sql::parse_query(&schema, sql).map_err(|e| e.to_string())?;
    println!("query `{}`:", q.name);
    println!("  tables:");
    for (t, sel) in q.tables.iter().zip(&q.selectivity) {
        println!("    {:<24} selectivity {:.4}", schema.table(*t).name, sel);
    }
    println!("  joins:");
    for j in &q.joins {
        let (a, b) = j.pairs[0];
        println!(
            "    {}.{} = {}.{}{}",
            schema.table(a.table).name,
            schema.table(a.table).attributes[a.attr.0].name,
            schema.table(b.table).name,
            schema.table(b.table).attributes[b.attr.0].name,
            if j.pairs.len() > 1 {
                format!("  (+{} composite pairs)", j.pairs.len() - 1)
            } else {
                String::new()
            }
        );
    }
    println!("  cpu factor: {:.2}", q.cpu_factor);
    Ok(())
}

fn cmd_advise(args: &[String]) -> Result<(), String> {
    let (flags, _) = parse_flags(args)?;
    let spec = benchmark(&flags)?;
    let engine = engine_of(&flags)?;
    let sf = sf_of(&flags, spec)?;
    let episodes: usize = flags
        .get("episodes")
        .map(|s| s.parse().map_err(|_| "bad --episodes"))
        .transpose()?
        .unwrap_or(250);
    let schema = (spec.schema)(sf).expect("benchmark schema builds");
    let tmax: usize = flags
        .get("tmax")
        .map(|s| s.parse().map_err(|_| "bad --tmax"))
        .transpose()?
        .unwrap_or((schema.tables().len() + schema.edges().len()).min(60));
    let workload = (spec.workload)(&schema).expect("benchmark workload builds");

    eprintln!("training offline ({episodes} episodes, t_max {tmax})…");
    let cfg = DqnConfig::simulation(episodes, tmax).with_seed(0xC11);
    let mut advisor = Advisor::train_offline(
        schema.clone(),
        workload.clone(),
        NetworkCostModel::new(CostParams::standard()),
        MixSampler::uniform(&workload),
        cfg,
        engine.supports_compound_keys,
    );

    if flags.contains_key("online") {
        eprintln!("refining online on a sampled cluster…");
        let mut full = Cluster::new(
            schema.clone(),
            ClusterConfig::new(engine, HardwareProfile::standard()),
        );
        let mut sample = full.sampled(0.25);
        let uniform = workload.uniform_frequencies();
        let p_off = advisor.suggest(&uniform).partitioning;
        let scale = lpa::advisor::OnlineBackend::compute_scale_factors(
            &mut full,
            &mut sample,
            &workload,
            &p_off,
        );
        let backend = lpa::advisor::OnlineBackend::new(
            lpa::advisor::shared_cluster(sample),
            lpa::advisor::shared_cache(),
            scale,
            OnlineOptimizations::default(),
        );
        advisor.refine_online(backend, (episodes / 5).max(20));
    }

    let mix = workload.uniform_frequencies();
    let s = advisor.suggest(&mix);
    println!("suggested partitioning (reward {:.5}):", s.reward);
    for line in s.partitioning.describe(&schema).split(", ") {
        println!("  {line}");
    }

    if flags.contains_key("explain") {
        let explanation = lpa::advisor::Explanation::compare(
            &schema,
            &workload,
            &NetworkCostModel::new(CostParams::standard()),
            &mix,
            &Partitioning::initial(&schema),
            &s.partitioning,
        );
        println!("\nwhy (vs the by-key layout):\n{explanation}");
        let regressions: Vec<_> = explanation.regressions().collect();
        if !regressions.is_empty() {
            println!("queries that pay for the change:");
            for d in regressions {
                println!(
                    "  {:<14} {:.5}s → {:.5}s",
                    d.name, d.cost_before, d.cost_after
                );
            }
        }
    }

    if let Some(path) = flags.get("save") {
        let session = Checkpoint::Session(capture_advisor(0, &advisor));
        atomic_write(Path::new(path), &encode_checkpoint(&session)).map_err(|e| e.to_string())?;
        println!("policy saved to {path}");
    }
    Ok(())
}

fn cmd_baselines(args: &[String]) -> Result<(), String> {
    let (flags, _) = parse_flags(args)?;
    let spec = benchmark(&flags)?;
    let engine = engine_of(&flags)?;
    let sf = sf_of(&flags, spec)?;
    let schema = (spec.schema)(sf).expect("benchmark schema builds");
    let workload = (spec.workload)(&schema).expect("benchmark workload builds");
    let mix = workload.uniform_frequencies();
    let mut cluster = Cluster::new(
        schema.clone(),
        ClusterConfig::new(engine, HardwareProfile::standard()),
    );

    fn eval(
        cluster: &mut Cluster,
        workload: &Workload,
        mix: &FrequencyVector,
        label: &str,
        p: &Partitioning,
    ) {
        direct_deploy(cluster, p);
        let t = cluster.run_workload(workload, mix);
        println!("  {label:<22} {t:>10.4} s");
    }
    println!("workload runtime on {} at sf {sf}:", engine.name());
    eval(
        &mut cluster,
        &workload,
        &mix,
        "initial (by key)",
        &Partitioning::initial(&schema),
    );
    eval(
        &mut cluster,
        &workload,
        &mix,
        "heuristic (a)",
        &heuristic_a(&schema, &workload, spec.class),
    );
    eval(
        &mut cluster,
        &workload,
        &mix,
        "heuristic (b)",
        &heuristic_b(&schema, &workload, spec.class),
    );
    match lpa::baselines::minimum_optimizer_partitioning(&cluster, &workload, &mix, 10) {
        Some(p) => eval(&mut cluster, &workload, &mix, "minimum optimizer", &p),
        None => println!("  {:<22} {:>12}", "minimum optimizer", "not available"),
    }
    Ok(())
}
