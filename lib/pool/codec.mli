(** Length-prefixed frames and sealed payloads for pipe and socket IPC.

    Every message exchanged between the pool supervisor and its forked
    workers, between the {!Ise_serve} daemon and its clients, and
    between a fabric supervisor and its workers is one {e frame}: a
    fixed 10-byte header — 4 magic bytes (["ISEP"]), 1 frame-format
    version byte, 1 protocol byte, 4 big-endian payload-length bytes —
    followed by the payload.  The header makes stream
    desynchronisation (a worker writing garbage, a partial write cut
    off by a kill) detectable instead of silently corrupting the next
    message.

    There is one frame layout ({!version}) and each endpoint speaks
    exactly one application protocol, carried in the protocol byte:
    the pool uses 0, [ise fabric] 3 and [ise serve] 4.  The bytes
    must stay distinct: [Marshal] payloads carry no type, so the
    protocol byte is what stops one endpoint's frame being
    unmarshalled as another's message type.  A reader states the protocol it expects and refuses
    any other byte with [Unsupported_proto] from the header alone —
    endpoints never negotiate, because every peer is the same
    executable.

    Every payload is {e sealed}: the MD5 digest of the value's
    [Marshal] stream, then the stream ({!seal}).  {!unseal} is the one
    payload decoder for input from outside the process: it checks the
    digest, then walks the stream with {!valid_marshal}, and only then
    unmarshals — so a payload corrupted in transit, or one a hostile
    peer re-sealed with a correct digest, decodes to [None] and never
    crashes the runtime.  [Marshal] is safe here only because both
    ends run the same executable image (pool workers are forks, serve
    clients and fabric workers the same [ise] binary). *)

val version : int
(** The frame-format version written into and required of every
    header (2). *)

val header_bytes : int
(** Size of the fixed frame header (10). *)

val default_max_payload : int
(** Default refusal threshold for claimed payload sizes (64 MiB); a
    length field above it is treated as corruption, not as a request to
    allocate. *)

(** {1 Errors} *)

type error =
  | Bad_magic  (** header does not start with the magic bytes *)
  | Unsupported_version of int
      (** recognised magic, but a frame-format version other than
          {!version} *)
  | Unsupported_proto of int
      (** a well-formed header whose protocol byte is not the one the
          reader speaks *)
  | Oversized of int  (** claimed payload length exceeds the cap *)
  | Truncated  (** stream ended inside a frame *)
  | Undecodable
      (** a well-formed frame whose payload failed {!unseal} (never
          returned by {!decode}, which does not look at payloads) *)

val error_to_string : error -> string

(** {1 Frames} *)

val encode : ?proto:int -> string -> string
(** [encode payload] is the framed message (header ^ payload) with
    protocol byte [proto] (default 0, range 0..255).  The payload is
    taken as is; {!send} is the sealed-value writer. *)

(** For the non-blocking readers (the pool supervisor, the serve and
    fabric select loops): bytes accumulate in a buffer and frames are
    peeled off the front as they complete. *)

type decoded =
  | Frame of { payload : string; consumed : int }
      (** the raw payload and the total bytes consumed (header +
          payload) *)
  | Need_more  (** a valid prefix, but the frame is incomplete *)
  | Corrupt of error

val decode :
  ?max_payload:int -> ?proto:int -> bytes -> pos:int -> len:int -> decoded
(** Examine [len] bytes starting at [pos] as a frame whose protocol
    byte must be [proto] (default 0).  Never raises; never consumes
    anything on [Need_more] or [Corrupt]. *)

(** {1 Sealed payloads} *)

val seal : 'a -> string
(** MD5 digest of [Marshal.to_string v []], then that stream. *)

val unseal : string -> 'a option
(** The inverse of {!seal}, total on arbitrary bytes: [None] unless
    the digest matches {e and} the stream passes {!valid_marshal}.
    The digest makes in-transit corruption certain to surface;
    validation makes a deliberately re-sealed corrupt stream harmless.
    The caller's type annotation picks ['a] — as with [Marshal], it
    must be the type the writer sealed. *)

val valid_marshal : string -> bool
(** Structural validation of a marshal stream without decoding it.
    Walks the compact extern format with every read bounds-checked and
    cross-checks the header's data length, shared-object count, and
    64-bit word size — the three invariants the runtime's intern loop
    trusts blindly.  A stream that passes cannot crash
    [Marshal.from_string]; one that fails would (or uses opcodes this
    codec never produces, e.g. closures or custom blocks). *)

val unmarshal_opt : string -> 'a option
(** [Marshal.from_string] behind {!valid_marshal}, for bare (unsealed)
    marshal streams — the result store's payloads, which carry their
    own checksum.  Structural validity is not integrity: a corrupted
    stream can still decode to a wrong value of the right shape. *)

(** {1 Blocking file-descriptor I/O}

    Used by pool workers, serve clients and the fabric handshake, whose
    lives are simple: read one message, compute, write one message. *)

val send : ?proto:int -> Unix.file_descr -> 'a -> unit
(** Writes [v] as one frame with a sealed payload, looping over
    partial writes.  Raises [Unix.Unix_error] (e.g. [EPIPE]) if the
    peer is gone. *)

val recv :
  ?max_payload:int ->
  ?proto:int ->
  Unix.file_descr ->
  ('a, [ `Eof | `Corrupt of error ]) result
(** Blocking read of exactly one frame at protocol [proto] (default
    0), then {!unseal}.  [`Eof] only on a clean end-of-stream at a
    frame boundary; an EOF mid-frame is [`Corrupt Truncated], a payload
    that does not unseal [`Corrupt Undecodable]. *)
