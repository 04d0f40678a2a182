(** The checked-mode façade: assembles the four checker families into
    one report with stable text and JSON renderings.

    A report is a list of parts — one per family — each carrying its
    diagnostics, a one-line summary note, and the number of individual
    checks performed (so "clean" is distinguishable from "vacuous"). The
    service engine caches each part under a digest-derived key, exactly
    like any other pass artifact; both renderings are deterministic
    functions of the part data. *)

type part = {
  family : string;  (** "structural" | "oracle" | "ranges" | "transforms" *)
  note : string;  (** one line of coverage stats *)
  checks : int;
  diags : Ir.Diag.t list;
}

type report = { parts : part list }

(** The parts. [structural_part] also verifies the pristine lowered
    CFG when given one — this is the consumer the `lower` pass never
    had. [oracle_part] runs one {!Oracle} observer — {!Oracle.Classes}
    for the "oracle" part, {!Oracle.Ranges} for the "ranges" part —
    under two fixed parameter valuations and '??' streams
    (deterministic, so cached text is byte-stable across runs and
    domains), bounding each loop's checked iterations at [iters]. *)
val structural_part : ?lower:Ir.Cfg.t -> Ir.Ssa.t -> part

val oracle_part :
  ?iters:int -> Oracle.observer -> Analysis.Pipeline.analysis -> part

val transform_part : ?fuel:int -> Ir.Ast.program -> part

val errors : report -> int
val warnings : report -> int
val checks : report -> int

val part_to_text : part -> string

(** Text rendering: one [== family ==] section per part, diagnostics one
    per line, and a final [check: E errors, W warnings, N checks] line. *)
val to_text : report -> string

(** JSON object: [{"errors":..,"warnings":..,"checks":..,"parts":[..]}]. *)
val to_json : report -> string

(** One diagnostic as a JSON object (severity, code, origin, loc,
    message), as {!to_json} renders it. *)
val diag_to_json : Ir.Diag.t -> string

(** [assemble] forces the four parts in report order and builds the
    report. When the structural part carries an error, the report is
    that part alone and no other thunk is called: a broken program is
    never analyzed, interpreted or transformed. [ranges] returns [None]
    when there are no ranges to check; the report then has no ranges
    part. *)
val assemble :
  structural:(unit -> part) ->
  oracle:(unit -> part) ->
  ranges:(unit -> part option) ->
  transforms:(unit -> part) ->
  report

(** [run src] is the whole standalone check — parse, build SSA, analyze,
    all four parts through {!assemble} — without a service engine. *)
val run : ?iters:int -> string -> (report, string) result
