//! Hostile input over a live socket: a request line longer than
//! `MAX_LINE_BYTES` is answered with a named error and its connection
//! closed, a line at the cap is still served, a line that is not UTF-8
//! is answered without closing, and the server keeps answering new
//! connections afterwards.

use cheri_serve::{decode_event, Client, Event, Server, ServerConfig, MAX_LINE_BYTES, SCHEMA};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

fn next_line(reader: &mut BufReader<TcpStream>) -> String {
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    line
}

#[test]
fn an_oversized_line_is_refused_and_the_server_lives_on() {
    let server =
        Server::bind("127.0.0.1:0", ServerConfig { workers: 1, ..ServerConfig::default() })
            .unwrap();
    let addr = server.local_addr().unwrap().to_string();
    let handle = std::thread::spawn(move || server.serve());

    let mut raw = TcpStream::connect(&addr).unwrap();
    let mut reader = BufReader::new(raw.try_clone().unwrap());

    // A line that is not UTF-8 is answered, and the connection stays.
    raw.write_all(b"{\"type\":\"ping\xff\"}\n").unwrap();
    let message = "bad request: line is not UTF-8".to_string();
    assert_eq!(decode_event(&next_line(&mut reader)), Ok(Event::Error { message }));

    // A ping padded to exactly the cap is a line like any other.
    let ping = "{\"type\":\"ping\"}";
    let at_cap = format!("{}{ping}\n", " ".repeat(MAX_LINE_BYTES - ping.len()));
    raw.write_all(at_cap.as_bytes()).unwrap();
    assert_eq!(decode_event(&next_line(&mut reader)), Ok(Event::Pong { schema: SCHEMA.into() }));

    // One byte more, with no newline in sight, is refused by name. The
    // client sends exactly what the server reads, so the close is clean.
    raw.write_all(&vec![b'x'; MAX_LINE_BYTES + 1]).unwrap();
    let message = format!("bad request: line longer than {MAX_LINE_BYTES} bytes");
    assert_eq!(decode_event(&next_line(&mut reader)), Ok(Event::Error { message }));
    assert_eq!(next_line(&mut reader), "", "the server closes the connection");

    // The server itself lives on.
    let mut client = Client::connect(&addr).unwrap();
    assert_eq!(client.ping().unwrap(), SCHEMA);
    client.shutdown().unwrap();
    handle.join().unwrap().unwrap();
}
