//! Online serving: a long-running orchestrator accepting pod
//! submissions through the in-process API at wall-clock speed.
//!
//! A producer thread pushes a Borg-derived job stream through
//! [`online_channel`]'s cloneable handle into [`OnlineServer`], which
//! runs the replay event loop with a wall clock: each arrival is stamped
//! with the wall time since `serve` began, the scheduler and probe loops
//! run on their configured periods in between, and the in-flight work
//! drains at virtual speed once the stream closes.
//!
//! ```text
//! cargo run --release -p examples --bin online_serving
//! ```

use borg_trace::{GeneratorConfig, Workload};
use sgx_orchestrator::prelude::*;

fn main() {
    // A small all-SGX job stream from the synthetic Borg generator.
    let trace = GeneratorConfig::small(7).generate_sampled(4);
    let workload = Workload::materialize(&trace, &WorkloadParams::paper(1.0, 7));
    let jobs = workload.jobs().to_vec();
    println!("streaming {} jobs into a live orchestrator…", jobs.len());

    let (handle, mut frontend) = online_channel();
    let submitter = std::thread::spawn(move || {
        for job in jobs {
            assert!(handle.submit(job), "server hung up");
        }
        // Dropping the handle closes the stream; the server drains.
    });

    let server = OnlineServer::new(&ReplayConfig::paper(7));
    let report = server.serve(&mut frontend);
    submitter.join().expect("submitter thread panicked");

    println!("\nsession report:");
    println!("  submitted:      {}", report.submitted);
    println!("  bound:          {}", report.bound);
    println!(
        "  outcomes:       {} completed, {} denied, {} unschedulable",
        report.completed, report.denied, report.unschedulable
    );
    println!("  wall clock:     {:.3} s", report.wall_secs);
    println!("  simulated end:  {}", report.sim_end);
    println!(
        "  throughput:     {:.0} pods bound per wall-clock second",
        report.bound_per_sec()
    );
}
