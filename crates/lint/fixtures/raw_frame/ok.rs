//! Known-clean for `raw-frame`: the sanctioned seal/open path, the
//! `digest_msg` exemption, and near-miss identifiers.

pub fn sealed(msg: &Message) -> Vec<u8> {
    // The one sanctioned path: the frame carries a causal stamp.
    wire::seal(stamp(), msg)
}

pub fn opened(frame: &[u8]) -> (CausalStamp, Message) {
    wire::open(frame)
}

pub fn sealed_for_a_socket<'m>(msg: &'m Message, head: &mut BytesMut) -> &'m [u8] {
    // The split form of `seal`: stamped head, borrowed body.
    wire::seal_split(stamp(), msg, head)
}

pub fn opened_from_a_socket(first: &[u8], len: usize, rest: &[u8]) -> (CausalStamp, Message) {
    // The split form of `open`: the payload lands in the message's own
    // vector; anything that is not a parameter frame is opened whole.
    match wire::split_frame(first, len, Vec::with_capacity) {
        Ok(Some(mut frame)) => {
            frame.unfilled_mut().copy_from_slice(rest);
            frame.open()
        }
        _ => wire::open(&[first, rest].concat()),
    }
}

pub fn near_misses(msg: &Message) -> usize {
    // Identifiers that merely contain `encode_head`.
    msg.encode_head_len() + encode_head_room()
}

/// The model checker digests states, not wire frames; its body is
/// exempt via the symbol table.
fn digest_msg(msg: &Message) -> u64 {
    let bytes = msg.encode();
    fxhash(&bytes)
}

pub fn measured(msg: &Message) -> usize {
    // `encoded_len` is a token, not a substring match on `encode`.
    msg.encoded_len()
}
