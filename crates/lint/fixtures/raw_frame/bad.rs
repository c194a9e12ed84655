//! Seeded violations for `raw-frame`: frames built or parsed outside
//! `wire::seal`/`wire::open` ship without a causal stamp.

pub fn ship(msg: &Message, out: &mut Vec<u8>) {
    let frame = msg.encode(); //~ raw-frame
    out.extend_from_slice(&frame);
}

pub fn receive(bytes: &[u8]) -> Message {
    Message::decode(bytes) //~ raw-frame
}

pub fn relay(msg: &Message) -> Message {
    let bytes = msg.encode(); //~ raw-frame
    bytes.decode() //~ raw-frame
}

pub fn ship_in_halves(msg: &Message, head: &mut BytesMut, out: &mut Vec<u8>) {
    // The halves of the split encoding are no more stamped than the
    // whole: a transport goes through `wire::seal_split`.
    let body = msg.encode_head(head); //~ raw-frame
    out.extend_from_slice(head);
    msg.encode_into(head); //~ raw-frame
    drop(body);
}

#[cfg(test)]
mod tests {
    // Test code is not exempt: only `fn digest_msg` is.
    #[test]
    fn round_trip(msg: &Message) {
        let frame = msg.encode(); //~ raw-frame
        drop(frame);
    }
}
