//! The wire protocol: length-prefixed JSON frames.
//!
//! Each frame is a 4-byte big-endian payload length followed by that
//! many bytes of UTF-8 JSON. Requests travel as
//! `{"id":N,"request":{...}}` envelopes and replies as
//! `{"id":N,"reply":{...}}`; ids are caller-chosen and echoed back, so
//! a client may pipeline and match replies out of order.

use crate::request::{Reply, Request};
use gpm_json::{FromJson, Json, JsonError, ToJson};
use std::io::{self, Read, Write};

/// Largest accepted frame payload (1 MiB) — a cheap defence against a
/// corrupt or hostile length prefix.
pub const MAX_FRAME_LEN: usize = 1 << 20;

/// Appends one frame (length prefix + payload) to `wire`, so that
/// several frames can leave in one write.
///
/// # Errors
///
/// Fails when the payload exceeds [`MAX_FRAME_LEN`]; `wire` is then
/// left as it was.
pub(crate) fn push_frame(wire: &mut Vec<u8>, payload: &str) -> io::Result<()> {
    let bytes = payload.as_bytes();
    if bytes.len() > MAX_FRAME_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("frame of {} bytes exceeds {MAX_FRAME_LEN}", bytes.len()),
        ));
    }
    wire.extend_from_slice(&(bytes.len() as u32).to_be_bytes());
    wire.extend_from_slice(bytes);
    Ok(())
}

/// Writes one frame (length prefix + payload) in one write.
///
/// # Errors
///
/// Fails when the payload exceeds [`MAX_FRAME_LEN`] or on I/O error.
pub fn write_frame(writer: &mut impl Write, payload: &str) -> io::Result<()> {
    let mut wire = Vec::with_capacity(4 + payload.len());
    push_frame(&mut wire, payload)?;
    writer.write_all(&wire)?;
    writer.flush()
}

/// Reads one frame. Returns `Ok(None)` on a clean EOF at a frame
/// boundary (the peer closed the connection).
///
/// # Errors
///
/// Fails on oversized lengths, mid-frame EOF, non-UTF-8 payloads and
/// I/O errors.
pub fn read_frame(reader: &mut impl Read) -> io::Result<Option<String>> {
    let mut len_bytes = [0u8; 4];
    match reader.read_exact(&mut len_bytes) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = u32::from_be_bytes(len_bytes) as usize;
    if len > MAX_FRAME_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds {MAX_FRAME_LEN}"),
        ));
    }
    let mut payload = vec![0u8; len];
    reader.read_exact(&mut payload)?;
    String::from_utf8(payload)
        .map(Some)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

/// Incremental frame parser for nonblocking reads.
///
/// The reactor reads whatever bytes the kernel has and feeds them here;
/// [`FrameDecoder::next_frame`] yields complete frames as they
/// materialise, regardless of how the byte stream was split — a length
/// prefix may arrive one byte at a time, and one read may carry many
/// pipelined frames. Semantics mirror [`read_frame`]: oversized lengths
/// and invalid UTF-8 are errors that poison the connection.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    pos: usize,
    poisoned: Option<io::ErrorKind>,
}

impl FrameDecoder {
    /// Creates an empty decoder.
    pub fn new() -> Self {
        FrameDecoder::default()
    }

    /// Appends freshly read bytes to the internal buffer.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed as frames (a non-zero value
    /// at EOF means the peer hung up mid-frame).
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Pops the next complete frame, or `Ok(None)` if more bytes are
    /// needed.
    ///
    /// # Errors
    ///
    /// Fails on an oversized length prefix or a non-UTF-8 payload; the
    /// stream is unrecoverable after either, and every later call keeps
    /// failing with the same error kind no matter what bytes arrive.
    pub fn next_frame(&mut self) -> io::Result<Option<String>> {
        if let Some(kind) = self.poisoned {
            return Err(io::Error::new(kind, "frame stream already poisoned"));
        }
        let avail = &self.buf[self.pos..];
        if avail.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_be_bytes([avail[0], avail[1], avail[2], avail[3]]) as usize;
        if len > MAX_FRAME_LEN {
            self.poisoned = Some(io::ErrorKind::InvalidData);
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("frame length {len} exceeds {MAX_FRAME_LEN}"),
            ));
        }
        if avail.len() < 4 + len {
            return Ok(None);
        }
        let payload = match std::str::from_utf8(&avail[4..4 + len]) {
            Ok(s) => s.to_string(),
            Err(e) => {
                self.poisoned = Some(io::ErrorKind::InvalidData);
                return Err(io::Error::new(io::ErrorKind::InvalidData, e));
            }
        };
        self.pos += 4 + len;
        // Reclaim consumed prefix once it is large enough to matter.
        if self.pos > (64 << 10) {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        Ok(Some(payload))
    }
}

/// Encodes a request envelope.
pub fn encode_request(id: u64, request: &Request) -> String {
    gpm_json::write(&Json::Obj(vec![
        ("id".to_string(), id.to_json()),
        ("request".to_string(), request.to_json()),
    ]))
}

/// Encodes a reply envelope.
pub fn encode_reply(id: u64, reply: &Reply) -> String {
    gpm_json::write(&Json::Obj(vec![
        ("id".to_string(), id.to_json()),
        ("reply".to_string(), reply.to_json()),
    ]))
}

fn envelope_field<T: FromJson>(text: &str, name: &str) -> Result<(u64, T), JsonError> {
    let json = gpm_json::parse(text)?;
    let id = u64::from_json(
        json.get("id")
            .ok_or_else(|| JsonError::missing_field("id"))?,
    )?;
    let value = T::from_json(
        json.get(name)
            .ok_or_else(|| JsonError::missing_field(name))?,
    )?;
    Ok((id, value))
}

/// Decodes a request envelope into `(id, request)`.
///
/// # Errors
///
/// Fails on malformed JSON or a missing `id`/`request` field.
pub fn decode_request(text: &str) -> Result<(u64, Request), JsonError> {
    envelope_field(text, "request")
}

/// Decodes a reply envelope into `(id, reply)`.
///
/// # Errors
///
/// Fails on malformed JSON or a missing `id`/`reply` field.
pub fn decode_reply(text: &str) -> Result<(u64, Reply), JsonError> {
    envelope_field(text, "reply")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::Response;
    use gpm_spec::FreqConfig;

    #[test]
    fn frames_round_trip_over_a_buffer() {
        let mut wire = Vec::new();
        write_frame(&mut wire, "first").unwrap();
        write_frame(&mut wire, "").unwrap();
        write_frame(&mut wire, "third").unwrap();
        let mut reader = wire.as_slice();
        assert_eq!(read_frame(&mut reader).unwrap().as_deref(), Some("first"));
        assert_eq!(read_frame(&mut reader).unwrap().as_deref(), Some(""));
        assert_eq!(read_frame(&mut reader).unwrap().as_deref(), Some("third"));
        assert_eq!(read_frame(&mut reader).unwrap(), None, "clean EOF");
    }

    #[test]
    fn a_frame_leaves_in_one_write() {
        /// Accepts every byte and counts the calls.
        struct Counting(Vec<u8>, usize);
        impl Write for Counting {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.0.extend_from_slice(buf);
                self.1 += 1;
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut sink = Counting(Vec::new(), 0);
        write_frame(&mut sink, "payload").unwrap();
        assert_eq!(sink.1, 1, "prefix and payload share one write");
        assert_eq!(
            read_frame(&mut sink.0.as_slice()).unwrap().as_deref(),
            Some("payload")
        );
    }

    #[test]
    fn oversized_and_truncated_frames_are_errors() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&(MAX_FRAME_LEN as u32 + 1).to_be_bytes());
        assert!(read_frame(&mut wire.as_slice()).is_err());

        let mut wire = Vec::new();
        wire.extend_from_slice(&8u32.to_be_bytes());
        wire.extend_from_slice(b"shrt"); // 4 of 8 promised bytes
        assert!(read_frame(&mut wire.as_slice()).is_err());
    }

    #[test]
    fn decoder_yields_frames_across_arbitrary_split_boundaries() {
        let mut wire = Vec::new();
        write_frame(&mut wire, "first").unwrap();
        write_frame(&mut wire, "").unwrap();
        write_frame(&mut wire, &"x".repeat(1000)).unwrap();

        // Feed the byte stream at every possible chunk size; the frame
        // sequence must be identical each time.
        for chunk in [1usize, 2, 3, 5, 7, 64, wire.len()] {
            let mut decoder = FrameDecoder::new();
            let mut frames = Vec::new();
            for piece in wire.chunks(chunk) {
                decoder.extend(piece);
                while let Some(frame) = decoder.next_frame().unwrap() {
                    frames.push(frame);
                }
            }
            assert_eq!(
                frames,
                vec!["first".to_string(), String::new(), "x".repeat(1000)],
                "chunk size {chunk}"
            );
            assert_eq!(decoder.buffered(), 0, "chunk size {chunk}");
        }
    }

    #[test]
    fn decoder_rejects_oversized_frames_and_reports_partials() {
        let mut decoder = FrameDecoder::new();
        decoder.extend(&(MAX_FRAME_LEN as u32 + 1).to_be_bytes());
        assert!(decoder.next_frame().is_err());

        let mut decoder = FrameDecoder::new();
        decoder.extend(&8u32.to_be_bytes());
        decoder.extend(b"shrt");
        assert_eq!(decoder.next_frame().unwrap(), None, "incomplete frame");
        assert_eq!(decoder.buffered(), 8, "partial bytes are reported");
    }

    #[test]
    fn decoder_stays_poisoned_after_its_first_error() {
        let mut decoder = FrameDecoder::new();
        decoder.extend(&2u32.to_be_bytes());
        decoder.extend(&[0xff, 0xfe]); // invalid UTF-8 payload
        assert!(decoder.next_frame().is_err());

        // Even a well-formed frame arriving afterwards must not revive
        // the stream: the reactor drops the connection on first error.
        let mut good = Vec::new();
        write_frame(&mut good, "late").unwrap();
        decoder.extend(&good);
        let again = decoder.next_frame();
        assert_eq!(again.unwrap_err().kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn envelopes_round_trip() {
        let request = Request::Energy {
            kernel: "LBM".to_string(),
            config: FreqConfig::from_mhz(975, 3505),
        };
        let (id, back) = decode_request(&encode_request(7, &request)).unwrap();
        assert_eq!((id, back), (7, request));

        let reply = Reply::Ok(Response::Power { watts: 145.0 });
        let (id, back) = decode_reply(&encode_reply(9, &reply)).unwrap();
        assert_eq!((id, back), (9, reply));

        assert!(decode_request(r#"{"request":{"Pareto":{"kernel":"x"}}}"#).is_err());
        assert!(decode_reply(r#"{"id":3}"#).is_err());
    }
}
