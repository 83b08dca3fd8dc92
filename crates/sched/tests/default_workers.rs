//! The process-default pool size is write-once and reaches every thread.
//! Its own test binary: the default is per process.

use livelit_sched::{configured_workers, init_default_workers, scope_workers};

#[test]
fn the_startup_default_reaches_every_thread_and_is_written_once() {
    assert!(init_default_workers(3));
    let seen = std::thread::spawn(configured_workers).join().unwrap();
    assert_eq!(seen, 3);
    assert!(!init_default_workers(5), "the default is write-once");
    {
        // A thread-scoped size wins on its own thread until it drops.
        let _pool = scope_workers(2);
        assert_eq!(configured_workers(), 2);
    }
    assert_eq!(configured_workers(), 3);
}
