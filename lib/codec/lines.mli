(** The line codec that the trace, profile-store and replay-log formats
    share: one record per line, whitespace-separated fields, blank and
    [#] lines skipped, an optional [V <version>] line, and embedded
    documents carried verbatim as [T <line>] lines (bare [T] for an
    empty line) behind a one-letter tag [T].  Each format keeps only its
    per-tag grammar. *)

(** Anything malformed, in every format. *)
exception Format_error of string

val error : ('a, Format.formatter, unit, 'b) format4 -> 'a

(** A line's fields: split on spaces, empty fields dropped. *)
val fields : string -> string list

(** [int what s] fails with [bad <what> "<s>"], followed by
    [ in line "<line>"] when [line] is given. *)
val int : ?line:string -> string -> string -> int

val bool : string -> string -> bool

(** [check_name what s] fails unless [s] is one non-empty field. *)
val check_name : string -> string -> unit

(** [%g] when it reads back to the same float, else the first of
    [%.15g], [%.16g] and [%.17g] that does. *)
val float_to_string : float -> string

(** Lowercase hex, ["-"] for the empty string; {!of_hex} reads it. *)
val hex : string -> string

val of_hex : string -> bytes

(** The CRC-32 as 8 lowercase hex digits. *)
val digest : string -> string

(** [add_doc buf tag doc] writes the newline-terminated [doc] as
    verbatim [tag] lines. *)
val add_doc : Buffer.t -> char -> string -> unit

(** [iter ?version ?docs record text] calls [record line fields] on each
    record, with [line] trimmed.  A line tagged with a [docs] tag is
    verbatim: it is recognized before trimming, and once [text] is read
    the tag's handler gets its document ([""] for none).  With
    [version = (format, v)], the [V] line must be present, read [v] and
    come before the first record that [record] accepts. *)
val iter :
  ?version:string * int ->
  ?docs:(char * (string -> unit)) list ->
  (string -> string list -> unit) ->
  string ->
  unit

(** [save path text] writes a file; [load path] reads one whole.  Both
    raise [Sys_error] as the channels do. *)
val save : string -> string -> unit
val load : string -> string
