//! Cross-crate integration tests: the full pipeline from schema to
//! suggestion, exercised through the public `lpa` API.

use lpa::prelude::*;

fn quick_cfg(episodes: usize, tmax: usize) -> DqnConfig {
    DqnConfig {
        batch_size: 16,
        hidden: vec![48, 24],
        ..DqnConfig::simulation(episodes, tmax)
    }
    .with_seed(99)
}

#[test]
fn offline_pipeline_improves_over_initial_layout() {
    let schema = lpa::schema::microbench::schema(0.05).expect("schema builds");
    let workload = lpa::workload::microbench::workload(&schema).expect("workload builds");
    let mut advisor = Advisor::train_offline(
        schema.clone(),
        workload.clone(),
        NetworkCostModel::new(CostParams::standard()),
        MixSampler::uniform(&workload),
        quick_cfg(120, 8),
        true,
    );
    let mix = workload.uniform_frequencies();
    let s = advisor.suggest(&mix);
    let r0 = advisor.reward_of(&Partitioning::initial(&schema), &mix);
    assert!(
        s.reward > r0 * 0.999,
        "suggestion ({}) must not be worse than s0 ({r0})",
        s.reward
    );
    s.partitioning.check(&schema).unwrap();
}

#[test]
fn online_pipeline_runs_and_accounts_time() {
    use lpa::advisor::{shared_cache, shared_cluster, OnlineBackend};

    let schema = lpa::schema::microbench::schema(0.02).expect("schema builds");
    let workload = lpa::workload::microbench::workload(&schema).expect("workload builds");
    let mut advisor = Advisor::train_offline(
        schema.clone(),
        workload.clone(),
        NetworkCostModel::new(CostParams::standard()),
        MixSampler::uniform(&workload),
        quick_cfg(40, 6),
        true,
    );

    let mut full = Cluster::new(
        schema.clone(),
        ClusterConfig::new(EngineProfile::system_x(), HardwareProfile::standard()),
    );
    let mut sample = full.sampled(0.25);
    let mix = workload.uniform_frequencies();
    let p_off = advisor.suggest(&mix).partitioning;
    let scale = OnlineBackend::compute_scale_factors(&mut full, &mut sample, &workload, &p_off);
    assert!(scale.iter().all(|s| *s > 1.0), "full > sample runtimes");

    let backend = OnlineBackend::new(
        shared_cluster(sample),
        shared_cache(),
        scale,
        OnlineOptimizations::default(),
    );
    advisor.refine_online(backend, 15);
    let acc = advisor.online_accounting().expect("online backend");
    assert!(acc.queries_executed > 0);
    assert!(acc.queries_cached > 0, "the runtime cache must be hit");
    assert!(acc.row_none() >= acc.row_timeouts());

    // The refined advisor still produces a valid suggestion, evaluated on
    // the full cluster.
    let p_on = advisor.suggest(&mix).partitioning;
    p_on.check(&schema).unwrap();
    full.deploy(&p_on);
    let t = full.run_workload(&workload, &mix);
    assert!(t > 0.0);
}

#[test]
fn baselines_and_advisor_share_the_same_state_space() {
    let schema = lpa::schema::ssb::schema(0.002).expect("schema builds");
    let workload = lpa::workload::ssb::workload(&schema).expect("workload builds");
    let class = SchemaClass::detect(&schema);
    let a = heuristic_a(&schema, &workload, class);
    let b = heuristic_b(&schema, &workload, class);
    a.check(&schema).unwrap();
    b.check(&schema).unwrap();

    let cluster = Cluster::new(
        schema.clone(),
        ClusterConfig::new(EngineProfile::pgxl(), HardwareProfile::standard()),
    );
    let mix = workload.uniform_frequencies();
    let p = lpa::baselines::minimum_optimizer_partitioning(&cluster, &workload, &mix, 6)
        .expect("PgXL exposes estimates");
    p.check(&schema).unwrap();
}

#[test]
fn engine_capability_gates_match_paper() {
    // System-X: no optimizer estimates, compound keys supported.
    let schema = lpa::schema::tpcch::schema(0.0005).expect("schema builds");
    let workload = lpa::workload::tpcch::workload(&schema).expect("workload builds");
    let sx = Cluster::new(
        schema.clone(),
        ClusterConfig::new(EngineProfile::system_x(), HardwareProfile::standard()),
    );
    let mix = workload.uniform_frequencies();
    assert!(
        lpa::baselines::minimum_optimizer_partitioning(&sx, &workload, &mix, 3).is_none(),
        "System-X hides optimizer estimates"
    );
    assert!(sx.engine().supports_compound_keys);

    let pg = Cluster::new(
        schema,
        ClusterConfig::new(EngineProfile::pgxl(), HardwareProfile::standard()),
    );
    assert!(!pg.engine().supports_compound_keys);
}

#[test]
fn suggestions_adapt_to_the_workload_mix() {
    // A custom two-query schema where each query unambiguously prefers a
    // different co-partitioning; the advisor must switch with the mix.
    let schema = lpa::schema::microbench::schema(0.05).expect("schema builds");
    let workload = lpa::workload::microbench::workload(&schema).expect("workload builds");
    let mut advisor = Advisor::train_offline(
        schema.clone(),
        workload.clone(),
        NetworkCostModel::new(CostParams::standard()),
        MixSampler::uniform(&workload),
        quick_cfg(150, 8),
        true,
    );
    let b_heavy = FrequencyVector::from_counts(&[1.0, 0.05], 2);
    let c_heavy = FrequencyVector::from_counts(&[0.05, 1.0], 2);
    let p_b = advisor.suggest(&b_heavy);
    let p_c = advisor.suggest(&c_heavy);
    // Both are valid and at least as good as the initial layout for their
    // own mix (a quick-trained agent need not be *optimal*, but inference
    // must never return something worse than doing nothing).
    p_b.partitioning.check(&schema).unwrap();
    p_c.partitioning.check(&schema).unwrap();
    let s0 = Partitioning::initial(&schema);
    let r0_b = advisor.reward_of(&s0, &b_heavy);
    let r0_c = advisor.reward_of(&s0, &c_heavy);
    assert!(p_b.reward >= r0_b, "{} vs {r0_b}", p_b.reward);
    assert!(p_c.reward >= r0_c, "{} vs {r0_c}", p_c.reward);
}

/// `lpa advise --save` goes through the store: two runs (the CLI trains
/// under a fixed seed) leave byte-identical session checkpoints and no
/// temp file, and the advisor restored from one suggests, for the uniform
/// mix, exactly the layout the CLI printed.
#[test]
fn cli_saved_policy_is_reproducible_and_restores_to_the_printed_advice() {
    use lpa::store::{decode_checkpoint, restore_offline, Checkpoint, OfflineTemplate};

    let dir = std::env::temp_dir().join(format!("lpa-cli-save-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let advise = |file: &str| {
        let path = dir.join(file);
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_lpa"))
            .args(["advise", "--benchmark", "micro", "--sf", "0.05"])
            .args(["--episodes", "30", "--tmax", "6", "--save"])
            .arg(&path)
            .output()
            .unwrap();
        assert!(out.status.success(), "{out:?}");
        let stdout = String::from_utf8(out.stdout).unwrap();
        assert!(stdout.contains(&format!("policy saved to {}", path.display())));
        (std::fs::read(&path).unwrap(), stdout)
    };
    let (first, stdout) = advise("a.lpa");
    let (second, _) = advise("b.lpa");
    assert_eq!(first, second, "same seed, different checkpoint bytes");
    let mut left: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    left.sort();
    assert_eq!(left, ["a.lpa", "b.lpa"], "a temp file outlived the write");

    let schema = lpa::schema::microbench::schema(0.05).unwrap();
    let workload = lpa::workload::microbench::workload(&schema).unwrap();
    let Checkpoint::Session(session) = decode_checkpoint(&first, &schema).unwrap() else {
        panic!("`advise --save` must write a session checkpoint");
    };
    let template = OfflineTemplate {
        schema: schema.clone(),
        workload: workload.clone(),
        model: NetworkCostModel::new(CostParams::standard()),
    };
    let mut advisor = restore_offline(session, &template).unwrap();
    let layout = advisor
        .suggest(&workload.uniform_frequencies())
        .partitioning
        .describe(&schema);
    let printed: Vec<&str> = stdout
        .lines()
        .skip_while(|l| !l.starts_with("suggested partitioning"))
        .skip(1)
        .take_while(|l| l.starts_with("  "))
        .map(str::trim)
        .collect();
    assert_eq!(printed, layout.split(", ").collect::<Vec<_>>());
    let _ = std::fs::remove_dir_all(&dir);
}
