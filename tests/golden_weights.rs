//! Golden-weight regression fixture: a short, fully pinned SSB training
//! run whose final Q-network and target-network weight bits are committed
//! as FNV-1a fingerprints. Any change to initialization, kernel summation
//! order, replay sampling, Adam, the encoder, or the environment's reward
//! pipeline moves the fingerprint — the broadest possible tripwire for
//! accidental numeric drift.
//!
//! After an *intentional* change to any of those (e.g. a new architecture
//! default), regenerate with:
//!
//! ```text
//! LPA_UPDATE_GOLDEN=1 cargo test --test golden_weights
//! ```
//!
//! and commit the updated fixture together with the change that explains
//! it. The run is deliberately tiny (a few episodes at scale factor 0.01)
//! so the tripwire is cheap enough to run everywhere.

use lpa::nn::reference::mlp_fingerprint;
use lpa::prelude::*;
use std::path::PathBuf;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/ssb_qnet_fingerprint.txt")
}

/// The pinned run: SSB at SF 0.01, 6 offline episodes, fixed seed. Every
/// input to this function is a constant; its output must be too.
fn trained_fingerprints() -> (u64, u64) {
    let schema = lpa::schema::ssb::schema(0.01).expect("schema builds");
    let workload = lpa::workload::ssb::workload(&schema).expect("workload builds");
    let cfg = DqnConfig {
        episodes: 6,
        tmax: 5,
        batch_size: 8,
        hidden: vec![32, 16],
        ..DqnConfig::paper()
    }
    .with_seed(0x601D);
    let advisor = Advisor::train_offline(
        schema,
        workload.clone(),
        NetworkCostModel::new(CostParams::standard()),
        MixSampler::uniform(&workload),
        cfg,
        true,
    );
    let s = advisor.snapshot();
    (mlp_fingerprint(&s.q), mlp_fingerprint(&s.target))
}

#[test]
fn ssb_trained_weights_match_golden_fingerprint() {
    let (q, target) = trained_fingerprints();
    let rendered = format!("q {q:016x}\ntarget {target:016x}\n");
    let path = golden_path();
    if std::env::var_os("LPA_UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).expect("golden dir");
        std::fs::write(&path, &rendered).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|_| {
        panic!(
            "{} missing — run with LPA_UPDATE_GOLDEN=1 to create it",
            path.display()
        )
    });
    assert_eq!(
        rendered, golden,
        "trained-weight fingerprint drifted — if the numeric change is \
         intentional, regenerate with LPA_UPDATE_GOLDEN=1 and commit the \
         fixture with the change that explains it"
    );
}

/// The fingerprint itself is order- and value-sensitive: training with a
/// different seed must move it (guards against a degenerate fingerprint
/// that would pass the golden test vacuously).
#[test]
fn fingerprint_is_sensitive_to_the_run() {
    let schema = lpa::schema::microbench::schema(0.01).expect("schema builds");
    let workload = lpa::workload::microbench::workload(&schema).expect("workload builds");
    let run = |seed: u64| {
        let cfg = DqnConfig {
            episodes: 2,
            tmax: 3,
            batch_size: 4,
            hidden: vec![8],
            ..DqnConfig::paper()
        }
        .with_seed(seed);
        let advisor = Advisor::train_offline(
            schema.clone(),
            workload.clone(),
            NetworkCostModel::new(CostParams::standard()),
            MixSampler::uniform(&workload),
            cfg,
            true,
        );
        mlp_fingerprint(&advisor.snapshot().q)
    };
    assert_ne!(run(1), run(2), "fingerprint must react to different runs");
}
