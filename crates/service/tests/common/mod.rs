//! Helpers shared by the front and proxy suites.

use std::time::Duration;

/// Runs `stop` on its own thread and requires it to return within a
/// second — a stop that never wakes the blocked accept would hang here.
pub fn stops_within_a_second(stop: impl FnOnce() + Send + 'static) {
    let (done, returned) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        stop();
        let _ = done.send(());
    });
    assert!(
        returned.recv_timeout(Duration::from_secs(1)).is_ok(),
        "stop must return within 1s"
    );
}
