(* Reference interpreter for SSA-form programs.

   The interpreter is the testing oracle for the classification passes:
   it executes the CFG directly (phis read their operands on the incoming
   edge, all at once, so rotation patterns like the paper's periodic
   variables behave correctly) and reports every instruction execution to
   an optional listener together with the current iteration number of
   each enclosing loop. Tests compare the listener's observations with
   the closed forms predicted by the classifier. *)

type outcome = Halted | Out_of_fuel | Trapped of Ops.trap * Instr.Id.t

type state = {
  ssa : Ssa.t;
  env : int Instr.Id.Table.t;
  params : Ident.t -> int;
  arrays : (Ident.t * int list, int) Hashtbl.t;
  rand : unit -> bool;
  iters : int array; (* per loop id: 0-based iteration of the header *)
  activations : int array; (* per loop id: how many times it was entered *)
  mutable steps : int;
  mutable outcome : outcome;
}

exception Stop

(* [value st v] is the runtime value of an operand. Instruction results
   must have been computed already (SSA guarantees defs dominate uses). *)
let value st (v : Instr.value) =
  match v with
  | Instr.Const n -> n
  | Instr.Param x -> st.params x
  | Instr.Def id -> (
    match Instr.Id.Table.find_opt st.env id with
    | Some n -> n
    | None -> 0 (* only possible along never-executed phi edges *))

(* [loop_iter st loop_id] is the 0-based iteration count of the loop:
   how many times its header has executed in the current activation,
   minus one. *)
let loop_iter st loop_id = st.iters.(loop_id)

(* [loop_activation st loop_id] counts the loop's activations: entries
   from outside the loop (1-based once entered). *)
let loop_activation st loop_id = st.activations.(loop_id)

let array_get st a idx =
  Option.value ~default:0 (Hashtbl.find_opt st.arrays (a, idx))

let array_set st a idx v = Hashtbl.replace st.arrays (a, idx) v

let exec_instr st (instr : Instr.t) =
  let arg i = value st instr.Instr.args.(i) in
  match instr.Instr.op with
  | Instr.Binop op -> Ops.eval_binop op (arg 0) (arg 1)
  | Instr.Relop op -> if Ops.eval_relop op (arg 0) (arg 1) then 1 else 0
  | Instr.Neg -> Ops.neg (arg 0)
  | Instr.Rand -> if st.rand () then 1 else 0
  | Instr.Aload a ->
    let idx = Array.to_list (Array.map (value st) instr.Instr.args) in
    array_get st a idx
  | Instr.Astore a ->
    let n = Array.length instr.Instr.args in
    let idx = List.init (n - 1) arg in
    let v = arg (n - 1) in
    array_set st a idx v;
    v
  | Instr.Phi -> invalid_arg "Interp.exec_instr: phi handled at block entry"
  | Instr.Load _ | Instr.Store _ ->
    invalid_arg "Interp.exec_instr: program is not in SSA form"

let run ?(fuel = 100_000) ?(on_instr = fun _ _ _ -> ()) ?(params = fun _ -> 0)
    ?(rand = fun () -> false) ?(arrays = []) (ssa : Ssa.t) =
  let cfg = Ssa.cfg ssa in
  let loops = Ssa.loops ssa in
  let preds = Cfg.pred_table cfg in
  let st =
    {
      ssa;
      env = Instr.Id.Table.create 256;
      params;
      arrays =
        (let h = Hashtbl.create 64 in
         List.iter (fun (key, v) -> Hashtbl.replace h key v) arrays;
         h);
      rand;
      iters = Array.make (Loops.num_loops loops) (-1);
      activations = Array.make (Loops.num_loops loops) 0;
      steps = 0;
      outcome = Halted;
    }
  in
  let charge () =
    st.steps <- st.steps + 1;
    if st.steps > fuel then begin
      st.outcome <- Out_of_fuel;
      raise Stop
    end
  in
  let current = ref (Cfg.entry cfg) in
  let prev = ref None in
  (try
     let continue = ref true in
     while !continue do
       let label = !current in
       let block = Cfg.block cfg label in
       (* Maintain loop iteration counters at loop headers. *)
       (match Loops.innermost loops label with
        | Some lp_id when Label.equal (Loops.loop loops lp_id).Loops.header label ->
          let lp = Loops.loop loops lp_id in
          let from_inside =
            match !prev with
            | Some p -> Label.Set.mem p lp.Loops.blocks
            | None -> false
          in
          if from_inside then st.iters.(lp_id) <- st.iters.(lp_id) + 1
          else begin
            st.iters.(lp_id) <- 0;
            st.activations.(lp_id) <- st.activations.(lp_id) + 1
          end
        | Some _ | None -> ());
       (* Phis first, in parallel, reading edge values. *)
       let phis, rest =
         List.partition (fun i -> i.Instr.op = Instr.Phi) block.Cfg.instrs
       in
       (* A block with no instructions still burns fuel: DCE can empty
          an unobservable infinite loop's body, and fuel charged only
          per instruction would never run out in it. *)
       if phis = [] && rest = [] then charge ();
       (match phis with
        | [] -> ()
        | _ ->
          let pred_index =
            match !prev with
            | None -> invalid_arg "Interp.run: phi in entry block"
            | Some p ->
              let rec find i = function
                | [] -> invalid_arg "Interp.run: phi pred not found"
                | q :: _ when Label.equal q p -> i
                | _ :: rest -> find (i + 1) rest
              in
              find 0 preds.(label)
          in
          let staged =
            List.map
              (fun (phi : Instr.t) ->
                charge ();
                (phi, value st phi.Instr.args.(pred_index)))
              phis
          in
          List.iter
            (fun ((phi : Instr.t), v) ->
              Instr.Id.Table.replace st.env phi.Instr.id v;
              on_instr st phi v)
            staged);
       List.iter
         (fun (instr : Instr.t) ->
           charge ();
           let v =
             try exec_instr st instr
             with Ops.Trap trap ->
               st.outcome <- Trapped (trap, instr.Instr.id);
               raise Stop
           in
           Instr.Id.Table.replace st.env instr.Instr.id v;
           on_instr st instr v)
         rest;
       (match block.Cfg.term with
        | Cfg.Jump l ->
          prev := Some label;
          current := l
        | Cfg.Branch (c, l1, l2) ->
          prev := Some label;
          current := (if value st c <> 0 then l1 else l2)
        | Cfg.Halt -> continue := false)
     done
   with Stop -> ());
  st

(* [trace_of ssa ~fuel ~params ~rand targets] runs the program and
   returns, for each target def, the list of (innermost-loop iteration,
   value) observations in execution order. *)
let trace_of ?(fuel = 100_000) ?(params = fun _ -> 0) ?(rand = fun () -> false)
    ?(arrays = []) (ssa : Ssa.t) (targets : Instr.Id.Set.t) =
  let observations : (int * int) list Instr.Id.Table.t = Instr.Id.Table.create 16 in
  let loops = Ssa.loops ssa in
  let cfg = Ssa.cfg ssa in
  let on_instr st (instr : Instr.t) v =
    if Instr.Id.Set.mem instr.Instr.id targets then begin
      let label = Cfg.block_of_instr cfg instr.Instr.id in
      let h =
        match Loops.innermost loops label with
        | Some lp -> loop_iter st lp
        | None -> -1
      in
      let cur =
        Option.value ~default:[] (Instr.Id.Table.find_opt observations instr.Instr.id)
      in
      Instr.Id.Table.replace observations instr.Instr.id ((h, v) :: cur)
    end
  in
  let st = run ~fuel ~on_instr ~params ~rand ~arrays ssa in
  let result =
    Instr.Id.Set.fold
      (fun id acc ->
        let obs =
          List.rev (Option.value ~default:[] (Instr.Id.Table.find_opt observations id))
        in
        Instr.Id.Map.add id obs acc)
      targets Instr.Id.Map.empty
  in
  (st, result)
