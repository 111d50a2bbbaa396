//! Cross-variant consistency: for every kernel of the library, every
//! parallel/distributed/GPU variant must produce the exact output of
//! the sequential reference — the invariant that lets the paper's
//! students "visually check if this new variant produces the expected
//! output" (§II-A), promoted to a bit-exact assertion.
//!
//! The kernel parameter table and runner live in `tests/common/mod.rs`,
//! shared with the conformance suite (`tests/conformance.rs`), which
//! sweeps the same cases across the full policy × worker matrix — see
//! `conformance_suite_subsumes_this_file` below.

use common::{cases, final_image, policies, variants_of, WORKER_COUNTS};
use easypap::core::kernel::NullProbe;
use easypap::core::perf::run_kernel;
use easypap::prelude::*;
use std::sync::{Arc, Mutex};

mod common;

#[test]
fn every_kernel_variant_matches_its_seq_reference() {
    let reg = easypap::kernels::registry();
    for case in cases() {
        let variants = reg.create(case.kernel).unwrap().variants();
        let reference = final_image(
            case.kernel,
            "seq",
            case.dim,
            case.tile,
            case.iters,
            3,
            Schedule::Static,
        );
        for variant in variants {
            if variant == "seq" {
                continue;
            }
            let got = final_image(
                case.kernel,
                variant,
                case.dim,
                case.tile,
                case.iters,
                3,
                Schedule::Dynamic(1),
            );
            assert_eq!(
                got, reference,
                "{}/{variant} diverged from {}/seq",
                case.kernel, case.kernel
            );
        }
    }
}

/// The conformance suite must cover at least everything this file does:
/// the same kernel table (shared by construction through `common`), a
/// policy set containing both schedules used above, and a worker sweep
/// wider than the single thread count used here. If someone narrows the
/// conformance matrix below this file's coverage, this fails.
#[test]
fn conformance_suite_subsumes_this_file() {
    // every registered kernel variant that this file compares is also
    // swept by common::run_matrix (it iterates the same cases() table
    // and the same variants_of()) — what's left to pin is the breadth
    // of the policy and worker axes.
    let p = policies();
    for needed in [Schedule::Static, Schedule::Dynamic(1)] {
        assert!(
            p.contains(&needed),
            "conformance policies lost {needed:?}, which this file relies on"
        );
    }
    assert!(
        p.len() >= 4,
        "conformance must sweep at least 4 scheduling policies"
    );
    assert!(
        WORKER_COUNTS.len() >= 3 && WORKER_COUNTS.contains(&1),
        "conformance must sweep >= 3 worker counts including the serial case"
    );
}

#[test]
fn schedules_never_change_results() {
    // mandel's output must be schedule-independent (only the *timing*
    // changes — that's the whole point of Fig. 4)
    let reference = final_image("mandel", "omp_tiled", 64, 16, 2, 3, Schedule::Static);
    for schedule in [
        Schedule::StaticChunk(3),
        Schedule::Dynamic(2),
        Schedule::Guided(1),
        Schedule::NonmonotonicDynamic(1),
    ] {
        assert_eq!(
            final_image("mandel", "omp_tiled", 64, 16, 2, 3, schedule),
            reference,
            "schedule {schedule:?} changed the image"
        );
    }
}

/// mandel's final images pinned by digest (FNV-1a over the pixels'
/// little-endian bytes, the digest the serve daemon reports), so that a
/// faster row function cannot drift from the pixels students have
/// always seen, even if every variant drifts together.
#[test]
fn mandel_final_images_match_pinned_digests() {
    // (dim, tile, iterations, digest): the easybench mandel job, and a
    // test-sized one
    let pinned = [
        (512, 32, 3, 0x02cd_2565_4521_de09u64),
        (64, 16, 1, 0xc8e5_1c33_a58f_f389),
    ];
    for (dim, tile, iters, want) in pinned {
        for variant in ["seq", "omp_tiled", "omp_tiled_x4", "gpu"] {
            let img = final_image("mandel", variant, dim, tile, iters, 2, Schedule::Dynamic(2));
            let bytes: Vec<u8> = img.iter().flat_map(|p| p.0.to_le_bytes()).collect();
            let got = ezp_serve::proto::fnv1a(&bytes);
            assert_eq!(
                got, want,
                "mandel/{variant} {dim}² tile {tile} x{iters}: digest {got:#018x} != pinned {want:#018x}"
            );
        }
    }
}

#[test]
fn tile_size_never_changes_results() {
    // except pixelize, where the tile *is* the effect
    for kernel in ["mandel", "blur", "life", "ccomp"] {
        let variant = variants_of(kernel)[1];
        let reference = final_image(kernel, variant, 60, 16, 3, 3, Schedule::Dynamic(1));
        for tile in [8, 12, 30, 60] {
            assert_eq!(
                final_image(kernel, variant, 60, tile, 3, 3, Schedule::Dynamic(1)),
                reference,
                "{kernel} changed output with tile size {tile}"
            );
        }
    }
}

#[test]
fn convergence_is_variant_independent() {
    let reg = easypap::kernels::registry();
    // a still-life board converges at iteration 1 in every variant
    for variant in ["seq", "omp_tiled", "lazy", "mpi_omp"] {
        let mut cfg = RunConfig::new("life")
            .variant(variant)
            .size(32)
            .tile(8)
            .threads(2)
            .iterations(10);
        cfg.kernel_arg = Some("block".into());
        if variant == "mpi_omp" {
            cfg.mpi_ranks = 2;
        }
        let (outcome, _) = run_kernel(&reg, cfg, Arc::new(NullProbe)).unwrap();
        assert_eq!(outcome.converged_at, Some(1), "life/{variant}");
        assert_eq!(outcome.completed_iterations, 1);
    }
}

#[test]
fn thread_count_never_changes_results() {
    for threads in [1, 2, 5, 8] {
        let got = final_image(
            "blur",
            "omp_tiled_opt",
            64,
            16,
            2,
            threads,
            Schedule::NonmonotonicDynamic(1),
        );
        let reference = final_image("blur", "seq", 64, 16, 2, 1, Schedule::Static);
        assert_eq!(got, reference, "blur changed output with {threads} threads");
    }
}

// ---------------------------------------------------------------------
// Wavefront dependency ordering: the taskgraph patterns behind ccomp's
// taskdep variant, pinned as ordering properties on the real pool (the
// virtual-schedule exploration of the same graphs lives in
// tests/ezp_check.rs).

/// Executes `graph` on a real pool and returns each task's completion
/// position.
fn parallel_positions(graph: &TaskGraph, threads: usize) -> Vec<usize> {
    let mut pool = WorkerPool::new(threads);
    let order = Mutex::new(Vec::new());
    graph
        .run(&mut pool, |t, _| order.lock().unwrap().push(t))
        .unwrap();
    let order = order.into_inner().unwrap();
    let mut pos = vec![usize::MAX; graph.len()];
    for (i, &t) in order.iter().enumerate() {
        pos[t] = i;
    }
    assert!(pos.iter().all(|&p| p != usize::MAX), "tasks missing");
    pos
}

#[test]
fn down_right_wavefront_runs_after_all_upper_left_ancestors() {
    let grid = TileGrid::square(48, 8).unwrap(); // 6x6 tiles
    let g = TaskGraph::down_right_wavefront(&grid);
    for round in 0..5 {
        let pos = parallel_positions(&g, 4);
        for t in grid.iter() {
            for a in grid.iter() {
                // transitive closure of {left, up} = the upper-left quadrant
                if (a.tx, a.ty) != (t.tx, t.ty) && a.tx <= t.tx && a.ty <= t.ty {
                    assert!(
                        pos[grid.linear_index(a.tx, a.ty)] < pos[grid.linear_index(t.tx, t.ty)],
                        "round {round}: tile ({}, {}) ran before ancestor ({}, {})",
                        t.tx,
                        t.ty,
                        a.tx,
                        a.ty
                    );
                }
            }
        }
    }
}

#[test]
fn up_left_wavefront_runs_after_all_lower_right_ancestors() {
    let grid = TileGrid::square(48, 8).unwrap();
    let g = TaskGraph::up_left_wavefront(&grid);
    for round in 0..5 {
        let pos = parallel_positions(&g, 4);
        for t in grid.iter() {
            for a in grid.iter() {
                if (a.tx, a.ty) != (t.tx, t.ty) && a.tx >= t.tx && a.ty >= t.ty {
                    assert!(
                        pos[grid.linear_index(a.tx, a.ty)] < pos[grid.linear_index(t.tx, t.ty)],
                        "round {round}: tile ({}, {}) ran before ancestor ({}, {})",
                        t.tx,
                        t.ty,
                        a.tx,
                        a.ty
                    );
                }
            }
        }
    }
}

#[test]
fn both_wavefronts_agree_with_seq_execution_coverage() {
    // run_seq is the documented deterministic reference: both wavefront
    // graphs must execute every tile exactly once in it, in an order the
    // parallel runs are permutations of
    let grid = TileGrid::square(40, 10).unwrap();
    for g in [
        TaskGraph::down_right_wavefront(&grid),
        TaskGraph::up_left_wavefront(&grid),
    ] {
        let mut seen = vec![0u32; g.len()];
        g.run_seq(|t, rank| {
            assert_eq!(rank, 0);
            seen[t] += 1;
        })
        .unwrap();
        assert!(seen.iter().all(|&c| c == 1), "run_seq coverage hole");
    }
}
