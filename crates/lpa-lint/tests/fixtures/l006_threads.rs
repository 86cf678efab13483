//! L006 fixture: direct `std::thread` use outside `lpa-par`. Every line
//! the rule must flag carries a `FINDING` marker.

use std::thread;

pub fn fully_qualified_spawn() {
    std::thread::spawn(|| {}); // FINDING L006

    std::thread::scope(|_s| {}); // FINDING L006
}

pub fn via_use_alias() {
    thread::spawn(|| {}); // FINDING L006
    let b = thread::Builder::new(); // FINDING L006
    drop(b);
}

pub fn not_findings() {
    // A local named `thread` without a path is not a thread API.
    let thread = 3usize;
    let _ = thread + 1;
    // Non-spawning thread items are out of scope for L006.
    std::thread::sleep(std::time::Duration::from_millis(0));
}

#[cfg(test)]
mod tests {
    // Test code may spawn freely — a flaky test is loud, not silent.
    #[test]
    fn threads_in_tests_are_exempt() {
        std::thread::spawn(|| {}).join().ok();
    }
}
