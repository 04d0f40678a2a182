(** Versioned binary framing for one on-disk artifact entry.

    Every entry the {!Disk} store publishes is one file holding one
    frame: a fixed magic, a format version, the artifact kind the writer
    stored under, the payload's length, and an FNV-64 checksum of the
    payload, followed by the payload bytes. The reader validates all of
    it and {e rejects} — returns a typed error instead of raising — on
    anything unexpected: a foreign file dropped into the store, an entry
    written by a future format version, a truncated write that survived
    a crash, a flipped bit, or an entry of the wrong kind reached
    through a key collision. A store read can therefore never crash the
    process or hand back bad bytes; the worst case is a recompute.

    Layout (integers little-endian):

    {v
    offset        size  field
    0             4     magic "IVST"
    4             1     format version (currently 1)
    5             1     kind length K
    6             K     kind bytes (e.g. "classify")
    6+K           8     payload length N
    14+K          8     FNV-64 checksum of the payload
    22+K          N     payload (the frame must end exactly here)
    v} *)

(** The current format version. Bump on any layout change; readers
    reject entries from any other version. *)
val version : int

type error =
  | Foreign  (** too short for, or not carrying, the magic *)
  | Bad_version of int  (** a valid entry of another format version *)
  | Bad_kind of string  (** a valid entry stored under another kind *)
  | Truncated  (** header or payload cut short (torn write) *)
  | Trailing of int  (** [n] bytes past the declared payload end *)
  | Bad_checksum  (** payload bytes do not match their checksum *)
  | Bad_section
      (** a section table (see {!decode_table}) whose section lengths or
          tags do not parse *)

val error_to_string : error -> string

(** [encode ~kind payload] is the framed entry as raw bytes.
    @raise Invalid_argument when [kind] is empty or longer than 255
    bytes (kinds are short fixed names like ["classify"]). *)
val encode : kind:string -> string -> string

(** [decode ~kind bytes] validates a frame read back from disk and
    returns its payload. Every failure mode is an [Error], never an
    exception. *)
val decode : kind:string -> string -> (string, error) result

(** {2 Section tables}

    A payload may hold a table of named sections: one store entry per
    source carries each of its rendered reports as one section. Each
    section is a tag length T (1 byte), the tag (T bytes of [a-z], at
    most 32), the text length N (8 bytes, little-endian) and the text.
    Tags are strictly ascending, so a table has one encoding. The outer
    frame's checksum covers the whole table. *)

(** [encode_table sections] sorts [sections] by tag and encodes them.
    @raise Invalid_argument on an invalid or repeated tag. *)
val encode_table : (string * string) list -> string

(** [decode_table payload] is the sections in tag order, or
    [Error Bad_section] when a length runs past the payload, a tag is
    invalid or the tags are not strictly ascending. Never raises. *)
val decode_table : string -> ((string * string) list, error) result
