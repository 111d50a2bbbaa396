//! Connection churn: a daemon that serves many short connections must
//! not keep a thread or a descriptor per connection. This test has its
//! own binary so that no concurrent test opens descriptors in the
//! process while it counts them.

use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

use ezp_core::json::ToJson;
use ezp_serve::proto::{read_frame, write_frame, FrameIn};
use ezp_serve::{Request, ServeConfig, Server};

fn open_fds() -> usize {
    std::fs::read_dir("/proc/self/fd")
        .map(|d| d.count())
        .unwrap_or(0)
}

/// One connection that asks for the stats document, reads it, and
/// closes.
fn stats_round_trip(addr: &str) {
    let mut s = TcpStream::connect(addr).unwrap();
    write_frame(&mut s, &Request::Stats.to_json()).unwrap();
    s.flush().unwrap();
    let mut reader = BufReader::new(s.try_clone().unwrap());
    assert!(matches!(read_frame(&mut reader).unwrap(), FrameIn::Msg(_)));
}

#[test]
fn connect_close_churn_leaves_descriptors_flat() {
    if open_fds() == 0 {
        eprintln!("skipped: /proc/self/fd is not readable here");
        return;
    }
    let server = Server::start(ServeConfig::default()).unwrap();
    let addr = server.addr().to_string();
    stats_round_trip(&addr);
    let before = open_fds();
    for i in 0..300 {
        if i % 2 == 0 {
            // connect and close without a word
            drop(TcpStream::connect(&addr).unwrap());
        } else {
            stats_round_trip(&addr);
        }
    }
    // readers are reaped at the next accept once they have seen EOF:
    // give the last ones a moment, then accept once more
    std::thread::sleep(Duration::from_millis(50));
    stats_round_trip(&addr);
    let after = open_fds();
    assert!(
        after <= before + 4,
        "300 connections leaked descriptors: {before} before, {after} after"
    );
    server.shutdown();
}
