//! The one length-prefixed frame reader and writer of this crate, and
//! the one accept loop that runs its readers.
//!
//! On the wire a frame is a 4-byte little-endian length, then that
//! many bytes of [`wire`] frame. [`write_frame`] hands the kernel
//! `prefix ‖ head ‖ body` in one vectored write: under `TCP_NODELAY` a
//! separate head write leaves as a segment of its own and wakes the
//! reader twice per frame. [`read_frame`] blocks in `read_exact` — a
//! reader has nothing else to wait for — landing a parameter payload
//! directly in the `Vec<f32>` its [`Message`] will own. The caller
//! supplies that vector: a [`TcpPort`](crate::tcp::TcpPort)'s readers
//! take it from the port's [`RecvSlot`], where the thread that consumes
//! the frames put it.
//! Both socket readers, a `TcpPort`'s and the collector's, run under
//! [`accept_readers`], which ends them with `shutdown(Read)` at stop.

use std::io::{ErrorKind, IoSlice, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::AtomicBool;
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::{self, JoinHandle};

use hadfl::wire::{self, CausalStamp, Message};
use hadfl_telemetry::accept_until;

/// One receive buffer, passed from the thread that keeps parameter
/// frames to the readers that fill them.
///
/// Every inbound connection has its own reader thread, and glibc gives
/// threads their own arenas: a vector allocated by the reader and freed
/// later by the consumer crosses arenas every frame. With the slot the
/// consumer allocates the buffer for the next frame ([`Self::refill`])
/// when it takes delivery of one, and a reader uses it ([`Self::take`])
/// once a parameter frame's head has been checked. An empty vector is
/// an empty slot.
#[derive(Default)]
pub(crate) struct RecvSlot(Mutex<Vec<f32>>);

impl RecvSlot {
    /// The buffer for a parameter frame of `count` elements: the slot's
    /// when its capacity fits, else a fresh zeroed vector, leaving the
    /// slot as it was.
    pub(crate) fn take(&self, count: usize) -> Vec<f32> {
        let mut slot = self.0.lock().unwrap_or_else(PoisonError::into_inner);
        if count > 0 && slot.capacity() >= count {
            std::mem::take(&mut *slot)
        } else {
            vec![0.0; count]
        }
    }

    /// After a parameter frame of `count` elements was delivered: gives
    /// the slot a buffer that fits the next one, allocated on the
    /// calling thread, unless it still holds one.
    pub(crate) fn refill(&self, count: usize) {
        let mut slot = self.0.lock().unwrap_or_else(PoisonError::into_inner);
        if slot.capacity() < count {
            *slot = Vec::with_capacity(count);
        }
    }
}

/// Runs [`accept_until`] on `listener`, handing every accepted
/// connection to `read` on a thread of its own, until `stop`. A reader
/// that returns shuts its connection, so the peer sees it closed. At
/// stop each connection still open is shut for reading and its reader
/// joined: once the thread running this returns, no reader is left.
/// Entries whose reader finished are pruned at each accept, so a
/// redialing peer pins no descriptors.
pub(crate) fn accept_readers<R>(listener: &TcpListener, stop: &AtomicBool, read: R)
where
    R: Fn(&TcpStream) + Clone + Send + 'static,
{
    let mut readers: Vec<(Arc<TcpStream>, JoinHandle<()>)> = Vec::new();
    accept_until(listener, stop, |stream| {
        readers.retain(|(_, reader)| !reader.is_finished());
        let (stream, read) = (Arc::new(stream), read.clone());
        let conn = Arc::clone(&stream);
        let reader = thread::spawn(move || {
            read(&conn);
            let _ = conn.shutdown(Shutdown::Both);
        });
        readers.push((stream, reader));
    });
    for (stream, _) in &readers {
        let _ = stream.shutdown(Shutdown::Read);
    }
    for (_, reader) in readers {
        let _ = reader.join();
    }
}

/// Reads one frame: the stamp, the message, and the frame's length in
/// bytes (prefix excluded). `None` means drop the connection: it ended
/// or failed, or the peer sent something corrupt or hostile — a length
/// above `max_frame_bytes`, a parameter head whose count disagrees with
/// the frame length, or bytes that do not decode. Both bounds are
/// checked before anything is allocated by them, and before `alloc` —
/// which supplies a parameter frame's vector, as [`wire::split_frame`]
/// describes — is called.
pub(crate) fn read_frame(
    stream: &mut impl Read,
    max_frame_bytes: usize,
    alloc: impl FnOnce(usize) -> Vec<f32>,
) -> Option<(CausalStamp, Message, usize)> {
    let mut prefix = [0u8; 4];
    stream.read_exact(&mut prefix).ok()?;
    let len = u32::from_le_bytes(prefix) as usize;
    if len > max_frame_bytes {
        return None;
    }
    let mut first = [0u8; wire::MAX_PARAM_HEAD];
    let first = &mut first[..len.min(wire::MAX_PARAM_HEAD)];
    stream.read_exact(first).ok()?;
    let (stamp, msg) = match wire::split_frame(first, len, alloc).ok()? {
        Some(mut frame) => {
            stream.read_exact(frame.unfilled_mut()).ok()?;
            frame.open()
        }
        None => {
            let mut frame = first.to_vec();
            frame.resize(len, 0);
            stream.read_exact(&mut frame[first.len()..]).ok()?;
            wire::open(&frame).ok()?
        }
    };
    Some((stamp, msg, len))
}

/// Seals `msg` for a socket: the length prefix and the frame's head in
/// one small buffer, and the body — a parameter payload, borrowed from
/// the message — to be written after it.
pub(crate) fn seal_frame(stamp: CausalStamp, msg: &Message) -> (Vec<u8>, &[u8]) {
    let mut head = Vec::with_capacity(4 + wire::MAX_PARAM_HEAD);
    let len = (wire::STAMP_LEN + msg.encoded_len()) as u32;
    head.extend_from_slice(&len.to_le_bytes());
    let body = wire::seal_split(stamp, msg, &mut head);
    (head, body)
}

/// Writes a frame [`seal_frame`] built: `head ‖ body` as one vectored
/// write, continued across short writes and `Interrupted`.
pub(crate) fn write_frame(
    stream: &mut impl Write,
    head: &[u8],
    body: &[u8],
) -> std::io::Result<()> {
    let mut slices = [IoSlice::new(head), IoSlice::new(body)];
    let mut unsent = &mut slices[..];
    while !unsent.is_empty() {
        match stream.write_vectored(unsent) {
            Ok(0) => return Err(ErrorKind::WriteZero.into()),
            Ok(n) => IoSlice::advance_slices(&mut unsent, n),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    /// A socket that yields one byte per read and is interrupted once,
    /// at `interrupt_at`.
    struct Dribble {
        bytes: Vec<u8>,
        at: usize,
        interrupt_at: Option<usize>,
    }

    impl Read for Dribble {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if self.interrupt_at == Some(self.at) {
                self.interrupt_at = None;
                return Err(ErrorKind::Interrupted.into());
            }
            let Some(&b) = self.bytes.get(self.at) else {
                return Ok(0);
            };
            buf[0] = b;
            self.at += 1;
            Ok(1)
        }
    }

    /// A socket that takes 1–7 bytes per call and is interrupted on
    /// every fifth.
    #[derive(Default)]
    struct Stingy {
        out: Vec<u8>,
        calls: usize,
    }

    impl Write for Stingy {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
            self.calls += 1;
            if self.calls.is_multiple_of(5) {
                return Err(ErrorKind::Interrupted.into());
            }
            let mut budget = 1 + self.calls % 7;
            let start = self.out.len();
            for buf in bufs {
                let n = budget.min(buf.len());
                self.out.extend_from_slice(&buf[..n]);
                budget -= n;
            }
            Ok(self.out.len() - start)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    const STAMP: CausalStamp = CausalStamp {
        origin: 3,
        lamport: 41,
    };

    /// NaN (quiet and signalling, with payloads), ±0, ±∞, subnormals.
    fn awkward_params() -> Vec<f32> {
        let mut params = vec![
            f32::NAN,
            f32::from_bits(0x7fa0_0001),
            f32::from_bits(0xffc0_1234),
            0.0,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::from_bits(1),
            -f32::MIN_POSITIVE / 3.0,
        ];
        params.extend((0..300).map(|i| (i as f32 * 0.37).sin()));
        params
    }

    fn param_variants(params: &[f32]) -> [Message; 4] {
        [
            Message::ParamSync {
                round: 7,
                params: params.to_vec(),
            },
            Message::ParamAccum {
                round: 7,
                hops: 2,
                params: params.to_vec(),
            },
            Message::MergedParams {
                round: 7,
                ttl: 1,
                params: params.to_vec(),
            },
            Message::FinalParams {
                device: 2,
                params: params.to_vec(),
            },
        ]
    }

    fn params_of(msg: &Message) -> &[f32] {
        match msg {
            Message::ParamSync { params, .. }
            | Message::ParamAccum { params, .. }
            | Message::MergedParams { params, .. }
            | Message::FinalParams { params, .. } => params,
            other => panic!("not a parameter frame: {other:?}"),
        }
    }

    /// `msg` as it travels: length prefix, then the sealed frame.
    fn framed(msg: &Message) -> Vec<u8> {
        let sealed = wire::seal(STAMP, msg);
        let mut out = (sealed.len() as u32).to_le_bytes().to_vec();
        out.extend_from_slice(&sealed);
        out
    }

    fn dribbled(bytes: Vec<u8>, interrupt_at: usize) -> Dribble {
        Dribble {
            bytes,
            at: 0,
            interrupt_at: Some(interrupt_at),
        }
    }

    fn slot_holding(count: usize) -> (RecvSlot, *const f32) {
        let slot = RecvSlot::default();
        slot.refill(count);
        let ptr = slot
            .0
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .as_ptr();
        (slot, ptr)
    }

    #[test]
    fn a_parameter_frame_lands_in_the_slot_buffer_bit_for_bit() {
        let params = awkward_params();
        for msg in param_variants(&params) {
            let bytes = framed(&msg);
            let (slot, ptr) = slot_holding(params.len());
            // One byte per read, and an interrupted read ten bytes into
            // the body.
            let mut stream = dribbled(bytes.clone(), 4 + wire::MAX_PARAM_HEAD + 10);
            let (stamp, got, len) = read_frame(&mut stream, 1 << 20, |n| slot.take(n)).unwrap();
            assert_eq!(len, bytes.len() - 4);
            assert_eq!(params_of(&got).as_ptr(), ptr, "{}", msg.kind());
            assert_eq!(
                slot.0
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .capacity(),
                0,
                "the slot was used"
            );
            // Re-sealed bytes compare where NaN payloads would not.
            let (open_stamp, opened) = wire::open(&bytes[4..]).unwrap();
            assert_eq!(stamp, open_stamp);
            assert_eq!(wire::seal(stamp, &got), wire::seal(open_stamp, &opened));
            assert_eq!(&wire::seal(stamp, &got)[..], &bytes[4..]);
        }
    }

    #[test]
    fn rejected_frames_and_unfitting_capacity_leave_the_slot_full() {
        let params = awkward_params();
        let n = params.len();
        let honest = framed(&param_variants(&params)[1]);
        let count_at = 4 + wire::MAX_PARAM_HEAD - 4;
        for lie in [n + 1, n - 1, n * 1000] {
            let mut lying = honest.clone();
            lying[count_at..count_at + 4].copy_from_slice(&(lie as u32).to_le_bytes());
            let (slot, ptr) = slot_holding(n * 1000);
            let mut stream = dribbled(lying, 4 + wire::MAX_PARAM_HEAD);
            assert!(read_frame(&mut stream, 1 << 20, |n| slot.take(n)).is_none());
            assert_eq!(
                slot.0
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .as_ptr(),
                ptr,
                "a count of {lie} emptied the slot"
            );
        }

        let (slot, ptr) = slot_holding(n);
        let mut stream = dribbled(honest.clone(), 4);
        let short_bound = honest.len() - 5;
        assert!(read_frame(&mut stream, short_bound, |n| slot.take(n)).is_none());
        assert_eq!(
            slot.0
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .as_ptr(),
            ptr,
            "an over-long prefix emptied the slot"
        );

        let (slot, ptr) = slot_holding(n - 1);
        let mut stream = dribbled(honest.clone(), 4 + wire::MAX_PARAM_HEAD + 1);
        let (_, got, _) = read_frame(&mut stream, 1 << 20, |n| slot.take(n)).unwrap();
        assert_ne!(params_of(&got).as_ptr(), ptr);
        assert_eq!(
            slot.0
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .as_ptr(),
            ptr,
            "an unfitting buffer left the slot"
        );
        assert_eq!(&wire::seal(STAMP, &got)[..], &honest[4..]);
    }

    #[test]
    fn refill_allocates_only_an_empty_or_unfitting_slot() {
        let (slot, ptr) = slot_holding(16);
        slot.refill(16);
        slot.refill(8);
        assert_eq!(
            slot.0
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .as_ptr(),
            ptr
        );
        slot.refill(17);
        assert!(
            slot.0
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .capacity()
                >= 17
        );
        // A frame with no parameters never takes the buffer.
        assert!(slot.take(0).is_empty());
        assert!(
            slot.0
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .capacity()
                >= 17
        );
    }

    #[test]
    fn short_and_interrupted_writes_reproduce_head_and_body() {
        let params = awkward_params();
        let mut msgs = param_variants(&params).to_vec();
        msgs.push(Message::Handshake { from: 4 });
        msgs.push(Message::ParamSync {
            round: 1,
            params: Vec::new(),
        });
        for msg in msgs {
            let (head, body) = seal_frame(STAMP, &msg);
            let mut sink = Stingy::default();
            write_frame(&mut sink, &head, body).unwrap();
            assert_eq!(sink.out, [&head[..], body].concat(), "{}", msg.kind());
            assert_eq!(sink.out, framed(&msg), "{}", msg.kind());
        }
    }
}
