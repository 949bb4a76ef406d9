//! The accept loop: a connection to an idle server is taken as soon as
//! it arrives, not at the acceptor's next poll of the stop token, and a
//! stop still ends an idle acceptor promptly.

use cheri_serve::{Client, Server, ServerConfig};
use std::sync::mpsc;
use std::time::{Duration, Instant};

fn spawn_server() -> (String, cheri_serve::Stop, std::thread::JoinHandle<std::io::Result<()>>) {
    let server =
        Server::bind("127.0.0.1:0", ServerConfig { workers: 1, ..ServerConfig::default() })
            .unwrap();
    let addr = server.local_addr().unwrap().to_string();
    let stop = server.stop_handle();
    (addr, stop, std::thread::spawn(move || server.serve()))
}

/// Five connections opened 37 ms apart to an idle server, each timed
/// from `connect` to its `health` answer. An acceptor that slept 100 ms
/// between polls would answer at most two of them within 20 ms; one
/// that blocks in `accept` answers all of them in about a millisecond.
#[test]
fn an_idle_server_answers_a_new_connection_at_once() {
    let (addr, stop, handle) = spawn_server();
    std::thread::sleep(Duration::from_millis(150));
    let mut waits = Vec::new();
    for _ in 0..5 {
        std::thread::sleep(Duration::from_millis(37));
        let t0 = Instant::now();
        let mut client = Client::connect(&addr).unwrap();
        client.health().unwrap();
        waits.push(t0.elapsed());
    }
    let prompt = waits.iter().filter(|w| **w < Duration::from_millis(20)).count();
    assert!(prompt >= 4, "connections waited for the acceptor: {waits:?}");
    stop.request();
    handle.join().unwrap().unwrap();
}

/// A tripped stop token ends an acceptor that no connection wakes.
#[test]
fn a_stop_ends_an_idle_acceptor() {
    let (_addr, stop, handle) = spawn_server();
    std::thread::sleep(Duration::from_millis(50));
    let t0 = Instant::now();
    stop.request();
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || tx.send(handle.join()));
    let served = rx.recv_timeout(Duration::from_secs(5)).expect("the acceptor never woke");
    served.unwrap().unwrap();
    assert!(t0.elapsed() < Duration::from_secs(1), "drained after {:?}", t0.elapsed());
}
