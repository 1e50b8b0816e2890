//! A long-running server must not keep every finished reader thread
//! until drain: an exited thread whose handle is never joined or dropped
//! keeps its stack mapped. This file holds one test, so its process runs
//! no other test's threads.

#![cfg(target_os = "linux")]

use buscode_serve::{memory_listener, ClientConfig, ClientSession, Server, ServerConfig};

/// This process's `VmSize`, in KiB.
fn vm_size_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmSize:"))
        .and_then(|value| value.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("a VmSize line in kB")
}

#[test]
fn finished_readers_release_their_stacks() {
    const WARM_UP: usize = 4;
    const SESSIONS: usize = 300;
    let (listener, connector) = memory_listener();
    let server = Server::new(ServerConfig::default());
    let handle = server.handle();
    let run = std::thread::spawn(move || server.run(Box::new(listener)));
    let open = || {
        let transport = Box::new(connector.connect().expect("listener is open"));
        ClientSession::open(transport, &ClientConfig::default()).expect("session opens")
    };

    // Warm-up: a reader thread that starts while every malloc arena is
    // held by a live thread makes a new arena, and glibc reserves 64 MiB
    // of address space for each. Readers alive together leave enough
    // arenas behind for the sequential sessions below to reuse.
    let warm: Vec<ClientSession> = (0..WARM_UP).map(|_| open()).collect();
    for session in warm {
        session.close().expect("session closes");
    }
    let before = vm_size_kib();
    for _ in 0..SESSIONS {
        open().close().expect("session closes");
    }
    let grown_mib = vm_size_kib().saturating_sub(before) / 1024;

    handle.shutdown();
    let metrics = run.join().expect("server thread").expect("server run");
    assert_eq!(metrics.sessions_closed, (WARM_UP + SESSIONS) as u64);
    assert!(
        grown_mib < 64,
        "VmSize grew by {grown_mib} MiB over {SESSIONS} sequential sessions"
    );
}
