//! The record path allocates per buffer, never per record: an identity job
//! over 4N records makes only a few more heap allocations than the same job
//! over N — the growth steps of buffers that double — where one allocation
//! per record would add thousands.
//!
//! The counter is process-wide, so this file holds a single test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use graphalytics_core::ScratchDir;
use graphalytics_mapreduce::job::{run_job, Emitter, JobConfig, Mapper, Reducer};

/// The system allocator, counting allocations and reallocations.
struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees are this allocator's.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` and the caller upholds
        // `realloc`'s contract for `layout` and `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

struct Identity;

impl Mapper for Identity {
    fn map(&self, key: u32, value: &[u8], out: &mut Emitter) {
        out.emit_bytes(key, value);
    }
}

struct Echo;

impl Reducer for Echo {
    fn reduce(&self, key: u32, values: &[&[u8]], out: &mut Emitter) {
        for value in values {
            out.emit_bytes(key, value);
        }
    }
}

/// Allocations made by one identity job over `records` records in two
/// input files, keyed in groups of four.
fn allocations(dir: &Path, records: usize) -> usize {
    let inputs: Vec<PathBuf> = (0..2).map(|i| dir.join(format!("in-{i}"))).collect();
    for (i, path) in inputs.iter().enumerate() {
        let mut writer = Emitter::default();
        for r in (i..records).step_by(2) {
            writer.emit((r / 4) as u32, |bytes| {
                bytes.extend_from_slice(&r.to_le_bytes())
            });
        }
        writer.write_to_file(path).unwrap();
    }
    let config = JobConfig {
        map_tasks: 2,
        reduce_tasks: 2,
        work_dir: dir.to_path_buf(),
    };
    let out = dir.join("out");
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let counters = run_job(&config, "identity", &inputs, &Identity, &Echo, &out).unwrap();
    let made = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(counters.reduce_output, records);
    made
}

#[test]
fn an_identity_job_allocates_per_buffer_not_per_record() {
    const N: usize = 2_000;
    let scratch: Vec<ScratchDir> = (0..3)
        .map(|_| ScratchDir::new(None, "gx-mr-alloc").unwrap())
        .collect();
    // The first job pays for lazily initialised process state.
    allocations(scratch[0].path(), N);
    let small = allocations(scratch[1].path(), N);
    let large = allocations(scratch[2].path(), 4 * N);
    assert!(
        large <= small + 32,
        "{small} allocations for {N} records, {large} for {}",
        4 * N
    );
}
