//! Save → restart → serve: snapshot persistence for the serving engine.
//!
//! The paper's labels are computed once and answer queries forever — but
//! only within one process, unless they are persisted. This example builds
//! the full serving stack over the Figure 3 run, publishes it, snapshots
//! the generation with [`EngineGeneration::save`], *drops everything* (the
//! "restart"), and restores a serving-ready generation with
//! [`EngineGeneration::load`]: same answers, same ids, no relabeling, no
//! view recompilation, no cycle-finding. It then demonstrates the
//! container's safety net: truncated, corrupted, version-mismatched and
//! wrong-spec snapshots are all rejected with typed errors, never a panic.
//!
//! Run with: `cargo run --example snapshot_serve`
//!
//! [`EngineGeneration::save`]: wfprov::engine::EngineGeneration::save
//! [`EngineGeneration::load`]: wfprov::engine::EngineGeneration::load

use std::sync::Arc;
use wfprov::engine::{
    EngineGeneration, EngineWriter, LiveEngine, SnapshotError, ViewRef, WorkerScratch,
};
use wfprov::fvl::{Fvl, VariantKind};
use wfprov::model::fixtures::paper_example;
use wfprov::run::fixtures::figure3_run;

fn main() {
    // ---- Process 1: label, compile, publish, serve, snapshot. ---------
    let ex = paper_example();
    let fvl =
        Arc::new(Fvl::from_arc(Arc::new(ex.spec.clone())).expect("strictly linear-recursive"));
    let (run, ids) = figure3_run(&ex);
    let labeler = fvl.labeler(&run);

    let mut writer = EngineWriter::from_fvl(fvl.clone());
    let items = writer.try_insert_labels(labeler.labels()).unwrap();
    let u1 = writer.add_view(ex.view_u1());
    let u2 = writer.add_view(ex.view_u2());
    for kind in VariantKind::ALL {
        writer.compile(u1, kind).unwrap();
    }
    let u2_default = writer.compile(u2, VariantKind::Default).unwrap();
    let gen = writer.publish(&LiveEngine::new(writer.base().clone()));

    let d17 = items[ids.d17.0 as usize];
    let d31 = items[ids.d31.0 as usize];
    let mut ws = WorkerScratch::new();
    let before = gen.core().try_query(&mut ws, u2_default, d17, d31).unwrap();
    println!("process 1: U2 says d31 depends on d17 -> {before:?}");

    // Snapshot to disk (any io::Write works; a file is what a service uses).
    let path = std::env::temp_dir().join("wfprov_snapshot_serve.bin");
    let mut file = std::fs::File::create(&path).expect("create snapshot file");
    gen.save(&mut file).expect("save snapshot");
    drop(file);
    let bytes = std::fs::read(&path).expect("read snapshot back");
    println!(
        "snapshot: {} bytes for {} labels + {} views ({} compiled variants)",
        bytes.len(),
        gen.store().len(),
        gen.registry().view_count(),
        gen.registry().compiled_count(),
    );
    drop((writer, gen)); // ---- the "restart" ----

    // ---- Process 2: load and serve immediately. -----------------------
    let restored = EngineGeneration::load(
        fvl.clone(),
        &mut std::fs::File::open(&path).expect("open snapshot"),
    )
    .expect("load snapshot");
    println!(
        "process 2: restored {} labels, {} views, {} compiled variants — no relabeling",
        restored.store().len(),
        restored.registry().view_count(),
        restored.registry().compiled_count(),
    );

    // Item and view ids are stable across save/load; every handle is
    // already compiled in the loaded registry.
    let after = restored.core().try_query(&mut ws, u2_default, d17, d31).unwrap();
    println!("process 2: U2 says d31 depends on d17 -> {after:?}");
    assert_eq!(before, after, "a loaded generation must answer identically");

    // The full all-pairs sweep agrees with a cold build across every
    // variant too.
    let mut fresh = EngineWriter::from_fvl(fvl.clone());
    fresh.try_insert_labels(labeler.labels()).unwrap();
    fresh.add_view(ex.view_u1());
    fresh.add_view(ex.view_u2());
    for kind in VariantKind::ALL {
        fresh.compile(u1, kind).unwrap();
    }
    let fresh = fresh.publish(&LiveEngine::new(fresh.base().clone()));
    let (mut warm_pairs, mut cold_pairs) = (Vec::new(), Vec::new());
    for kind in VariantKind::ALL {
        let vref = ViewRef { id: u1, kind };
        restored.core().try_all_pairs_into(&mut ws, vref, &items, &mut warm_pairs).unwrap();
        fresh.core().try_all_pairs_into(&mut ws, vref, &items, &mut cold_pairs).unwrap();
        assert_eq!(warm_pairs, cold_pairs, "{kind:?}: all-pairs sweep diverged after load");
    }
    println!("all-pairs over {} items agrees across all three variants", items.len());

    // ---- Bad input is rejected with typed errors, never a panic. ------
    let load = |bytes: &[u8]| EngineGeneration::load(fvl.clone(), &mut &bytes[..]);
    let truncated = load(&bytes[..bytes.len() / 2]);
    println!("truncated snapshot  -> {}", truncated.err().expect("must fail"));

    let mut corrupt = bytes.clone();
    let flip = corrupt.len() - 9; // payload byte
    corrupt[flip] ^= 0x40;
    let err = load(&corrupt).err().expect("must fail");
    assert!(matches!(err, SnapshotError::ChecksumMismatch));
    println!("corrupted snapshot  -> {err}");

    let mut foreign = bytes.clone();
    foreign[8] = 0x63; // format version 99
    println!("foreign version     -> {}", load(&foreign).err().expect("must fail"));

    println!("not a snapshot      -> {}", load(b"hello provenance").err().expect("must fail"));

    let _ = std::fs::remove_file(&path);
    println!("ok: save -> restart -> serve round-trip verified");
}
