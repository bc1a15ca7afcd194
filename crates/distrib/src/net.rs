//! Stream set-up for every socket of the distributed runtime.
//!
//! Master and workers talk in small frames, and a worker sends some of
//! them back to back with no reply in between (`CheckpointDone`, compute,
//! then `StepDone`). With Nagle's algorithm on, the second frame waits
//! until the first is acknowledged, and the receiver delays that ACK
//! (~40 ms on Linux): a kernel timer would then be most of every
//! superstep. So every stream is opened here, and every stream sets
//! `TCP_NODELAY`; the read timeout bounds the wait for a lost process.
//! Frames that always travel together also go out in one write
//! (`protocol::write_frames`), so correctness does not rest on the socket
//! option alone.

use std::io;
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::num::NonZeroU64;
// lint:allow(determinism-time): socket read timeouts bound the wait for lost peers
use std::time::Duration;

use graphalytics_core::config::{parse_knob, ConfigError};

/// Read-timeout for master and peer sockets: `GX_DISTRIB_IO_TIMEOUT_SECS`
/// seconds, 60 when unset; a peer silent for this long is treated as lost.
/// Crash detection normally rides the TCP EOF that closing a dead
/// process's sockets produces, so this is only a backstop against hangs.
/// A set value must be a positive integer.
pub fn io_timeout() -> Result<Duration, ConfigError> {
    const KNOB: &str = "GX_DISTRIB_IO_TIMEOUT_SECS";
    let secs = match std::env::var_os(KNOB) {
        // Bytes that are not Unicode fail to parse like any other typo.
        Some(value) => parse_knob::<NonZeroU64>(KNOB, &value.to_string_lossy())?.get(),
        None => 60,
    };
    Ok(Duration::from_secs(secs))
}

/// Connects to `addr` and returns the stream set up for frames.
pub fn dial(addr: impl ToSocketAddrs, timeout: Duration) -> io::Result<TcpStream> {
    setup(TcpStream::connect(addr)?, timeout)
}

/// Accepts one connection on `listener` and returns the stream set up for
/// frames. A non-blocking listener's `WouldBlock` comes back unchanged, so
/// a caller can poll; the stream itself is always blocking.
pub fn accept(listener: &TcpListener, timeout: Duration) -> io::Result<TcpStream> {
    let (stream, _) = listener.accept()?;
    setup(stream, timeout)
}

/// Blocking, `TCP_NODELAY`, reads bounded by `timeout`.
fn setup(stream: TcpStream, timeout: Duration) -> io::Result<TcpStream> {
    stream
        .set_nonblocking(false)
        .map_err(named("set blocking"))?;
    stream.set_nodelay(true).map_err(named("set nodelay"))?;
    stream
        .set_read_timeout(Some(timeout))
        .map_err(named("set read timeout"))?;
    Ok(stream)
}

/// Prefixes an error with the step that failed, keeping its kind.
fn named(what: &'static str) -> impl FnOnce(io::Error) -> io::Error {
    move |e| io::Error::new(e.kind(), format!("{what}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_ends_are_nodelay_with_the_read_timeout() {
        let timeout = Duration::from_secs(7);
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let dialed = dial(listener.local_addr().unwrap(), timeout).unwrap();
        let accepted = accept(&listener, timeout).unwrap();
        for stream in [&dialed, &accepted] {
            assert!(stream.nodelay().unwrap());
            assert_eq!(stream.read_timeout().unwrap(), Some(timeout));
        }
    }

    #[test]
    fn a_polling_listener_sees_would_block_then_a_set_up_stream() {
        let timeout = Duration::from_secs(3);
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        let err = accept(&listener, timeout).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WouldBlock);
        let _dialed = dial(listener.local_addr().unwrap(), timeout).unwrap();
        let accepted = loop {
            match accept(&listener, timeout) {
                Ok(stream) => break stream,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => std::thread::yield_now(),
                Err(e) => panic!("accept: {e}"),
            }
        };
        assert!(accepted.nodelay().unwrap());
        assert_eq!(accepted.read_timeout().unwrap(), Some(timeout));
    }
}
