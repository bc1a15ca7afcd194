//! The distributed-Pregel worker process. Spawned by the master (see
//! `graphalytics_distrib::master`); not meant to be invoked by hand.

use graphalytics_distrib::worker::{io_timeout, worker_main};

fn main() {
    let timeout = io_timeout().unwrap_or_else(|e| {
        eprintln!("gx-distrib-worker: {e}");
        std::process::exit(2);
    });
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Err(e) = worker_main(&args, timeout) {
        eprintln!("gx-distrib-worker: {e}");
        std::process::exit(1);
    }
}
