//! The one length-prefixed frame reader and writer of this crate.
//!
//! On the wire a frame is a 4-byte little-endian length, then that
//! many bytes of [`wire`] frame. Both socket readers — a
//! [`TcpPort`](crate::tcp::TcpPort)'s per-connection reader and the
//! collector's ingest connections — poll with a read timeout so they
//! notice shutdown, and a frame mid-read when the timeout fires must
//! resume, not restart. [`read_full`] is that cursor; [`read_frame`]
//! builds the whole receive path on it, landing a parameter payload
//! directly in the `Vec<f32>` its [`Message`] will own.

use std::io::{ErrorKind, Read, Write};
use std::sync::atomic::{AtomicBool, Ordering};

use hadfl::wire::{self, CausalStamp, Message};

/// Fills `buf` from `stream`, resuming across read timeouts: the
/// cursor survives a timeout, which only makes the loop look at `stop`.
/// `false` means the connection is finished — end of stream, a hard
/// error, or `stop` raised while waiting.
fn read_full(stream: &mut impl Read, buf: &mut [u8], stop: &AtomicBool) -> bool {
    let mut filled = 0;
    while filled < buf.len() {
        match stream.read(&mut buf[filled..]) {
            Ok(0) => return false,
            Ok(n) => filled += n,
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                if stop.load(Ordering::SeqCst) {
                    return false;
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return false,
        }
    }
    true
}

/// Reads one frame: the stamp, the message, and the frame's length in
/// bytes (prefix excluded). `None` means drop the connection: it
/// ended, `stop` was raised, or the peer sent something corrupt or
/// hostile — a length above `max_frame_bytes`, a parameter head whose
/// count disagrees with the frame length, or bytes that do not decode.
/// Both bounds are checked before anything is allocated by them.
pub(crate) fn read_frame(
    stream: &mut impl Read,
    max_frame_bytes: usize,
    stop: &AtomicBool,
) -> Option<(CausalStamp, Message, usize)> {
    let mut prefix = [0u8; 4];
    if !read_full(stream, &mut prefix, stop) {
        return None;
    }
    let len = u32::from_le_bytes(prefix) as usize;
    if len > max_frame_bytes {
        return None;
    }
    let mut first = [0u8; wire::MAX_PARAM_HEAD];
    let first = &mut first[..len.min(wire::MAX_PARAM_HEAD)];
    if !read_full(stream, first, stop) {
        return None;
    }
    let (stamp, msg) = match wire::split_frame(first, len).ok()? {
        Some(mut frame) => {
            if !read_full(stream, frame.unfilled_mut(), stop) {
                return None;
            }
            frame.open()
        }
        None => {
            let mut frame = first.to_vec();
            frame.resize(len, 0);
            if !read_full(stream, &mut frame[first.len()..], stop) {
                return None;
            }
            wire::open(&frame).ok()?
        }
    };
    Some((stamp, msg, len))
}

/// Seals `msg` for a socket: the length prefix and the frame's head in
/// one small buffer, and the body — a parameter payload, borrowed from
/// the message — to be written after it.
pub(crate) fn seal_frame(stamp: CausalStamp, msg: &Message) -> (bytes::BytesMut, &[u8]) {
    use bytes::BufMut;
    let mut head = bytes::BytesMut::with_capacity(4 + wire::MAX_PARAM_HEAD);
    head.put_u32_le((wire::STAMP_LEN + msg.encoded_len()) as u32);
    let body = wire::seal_split(stamp, msg, &mut head);
    (head, body)
}

/// Writes a frame [`seal_frame`] built.
pub(crate) fn write_frame(
    stream: &mut impl Write,
    head: &[u8],
    body: &[u8],
) -> std::io::Result<()> {
    stream.write_all(head)?;
    stream.write_all(body)
}
