(** The bench gate behind `ivtool bench-diff`: compare two BENCH_*.json
    files row by row and count regressions.

    Works on this repo's bench JSON shape generically: a top-level
    object whose array members ("runs", "rows") hold rows of scalar
    fields. Row identity is the string and bool fields; every numeric
    field (top-level ones included) is a deterministic counter. A
    counter that moved by more than 1% of its baseline value, in either
    direction, is a regression; so is a baseline row or counter missing
    from the new file. *)

type delta = {
  section : string;  (** "(top)" for top-level scalars, else "runs", … *)
  row_key : string;  (** e.g. [cache=cold] *)
  field : string;
  old_v : float;
  new_v : float;
  regression : bool;
}

type report = {
  deltas : delta list;  (** sorted by section, row key, field *)
  missing : string list;  (** baseline rows/counters absent from new *)
  notes : string list;  (** rows present only in new *)
  regressions : int;  (** moved counters plus [missing] entries *)
}

(** [compare ~old_json ~new_json] over raw file contents. [Error] on
    unparsable or non-object input. *)
val compare : old_json:string -> new_json:string -> (report, string) result

(** Human-readable rendering: one line per counter that changed, one
    per missing row or counter, notes, and a trailing summary line.
    Deterministic for the same inputs. *)
val to_string : report -> string
