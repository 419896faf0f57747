module Json = Tbtso_obs.Json

type oracle = Explorer | Sat | Both

type task = { path : string; test : Litmus_parse.t; mode : Litmus.mode }

type sat_check = {
  sat_holds : bool;
  sat_outcome_count : int;
  sat_complete : bool;
  sat_stats : Axiomatic.stats;
}

type robust_check =
  | Robust
  | Not_robust of Litmus.outcome
  | Robust_inconclusive of string

type verdict = {
  task : task;
  result : Litmus_parse.check_result option;
  sat : sat_check option;
  disagree : Litmus.outcome list option;
  robustness : robust_check option;
}

let load ~modes paths =
  List.concat_map
    (fun path ->
      let text =
        let ic = open_in path in
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      let test = Litmus_parse.parse text in
      List.map (fun mode -> { path; test; mode }) modes)
    paths

let sat_of test (r : Axiomatic.result) =
  {
    sat_holds = Litmus_parse.holds_on test r.outcomes;
    sat_outcome_count = List.length r.outcomes;
    sat_complete = r.complete;
    sat_stats = r.stats;
  }

(* SC-robustness of a mode, decided by one incremental containment
   query against the session's SC baseline. The session is built once
   per file and shared across all of the file's modes (see [check]):
   the encode and the SC baseline are mode-independent, so each further
   mode costs one containment query on the retained clause database —
   learned clauses included — instead of a full re-encode. *)
let robust_of sess mode =
  match Axiomatic.robust sess mode with
  | `Robust -> Robust
  | `Witness w -> Not_robust w
  | `Incomplete m -> Robust_inconclusive m

let check ?pool ?max_states ?(oracle = Explorer)
    ?(profiler = Tbtso_obs.Span.disabled) ?(robust = false) tasks =
  (* Each task runs inside one span labelled [file:mode] on whichever
     domain the pool hands it to, so a profiled [-j N] check shows the
     per-task schedule across domain tracks.

     When there are fewer tasks than domains, task-level fan-out would
     leave domains idle, so the pool is instead routed {e inside} each
     exploration: tasks run sequentially in the caller and the explorer
     splits its own frontier across the pool (outcome sets are
     byte-identical either way — see [Litmus.explore ?pool]). The SAT
     oracle has no intra-task split, so [Sat] keeps task-level
     fan-out. *)
  let intra =
    match pool with
    | Some p
      when oracle <> Sat
           && (not robust)
           && List.compare_length_with tasks (Tbtso_par.Pool.domains p) < 0
      ->
        Some p
    | _ -> None
  in
  let task_pool = if intra = None then pool else None in
  let one ?robust_query task =
    Tbtso_obs.Span.with_span profiler
      (Printf.sprintf "%s:%s"
         (Filename.basename task.path)
         (Litmus_parse.mode_id task.mode))
    @@ fun () ->
    let robustness = Option.map (fun q -> q ()) robust_query in
    match oracle with
    | Explorer ->
        {
          task;
          result =
            Some
              (Litmus_parse.check ?max_states ~profiler ?pool:intra task.test
                 ~mode:task.mode);
          sat = None;
          disagree = None;
          robustness;
        }
    | Sat ->
        let r =
          Axiomatic.explore ~mode:task.mode ~profiler
            task.test.Litmus_parse.program
        in
        {
          task;
          result = None;
          sat = Some (sat_of task.test r);
          disagree = None;
          robustness;
        }
    | Both ->
        let op =
          Litmus.explore ~mode:task.mode ?max_states ~profiler ?pool:intra
            task.test.Litmus_parse.program
        in
        let sx =
          Axiomatic.explore ~mode:task.mode ~profiler
            task.test.Litmus_parse.program
        in
        (* A partial exploration is a sound subset for either oracle, so
           a disagreement is provable whenever an outcome escapes a
           COMPLETE other side; with both sides complete the symmetric
           difference is the witness set. *)
        let diff a b = List.filter (fun o -> not (List.mem o b)) a in
        let witnesses =
          match (op.Litmus.complete, sx.Axiomatic.complete) with
          | true, true ->
              diff op.Litmus.outcomes sx.Axiomatic.outcomes
              @ diff sx.Axiomatic.outcomes op.Litmus.outcomes
          | true, false -> diff sx.Axiomatic.outcomes op.Litmus.outcomes
          | false, true -> diff op.Litmus.outcomes sx.Axiomatic.outcomes
          | false, false -> []
        in
        {
          task;
          result = Some (Litmus_parse.check_explored task.test op);
          sat = Some (sat_of task.test sx);
          disagree =
            (match List.sort compare witnesses with
            | [] -> None
            | ws -> Some ws);
          robustness;
        }
  in
  if not robust then
    match task_pool with
    | None -> List.map (fun t -> one t) tasks
    | Some pool -> Tbtso_par.Pool.map_list pool (fun t -> one t) tasks
  else begin
    (* Robustness shares one SAT session per FILE: [load] fans each
       file out into one task per mode, and the session's encode + SC
       baseline are mode-independent, so the unit of work becomes the
       file, not the task.  Group tasks by path in first-occurrence
       order, run each group on one session, and scatter the verdicts
       back to their original positions — the result list is identical
       (order included) to the per-task dispatch, and seq vs [-j N]
       stays byte-identical because [Pool.map_list] preserves order. *)
    let groups : (string, (int * task) list ref) Hashtbl.t =
      Hashtbl.create 16
    in
    let order = ref [] in
    List.iteri
      (fun i t ->
        match Hashtbl.find_opt groups t.path with
        | Some cell -> cell := (i, t) :: !cell
        | None ->
            Hashtbl.add groups t.path (ref [ (i, t) ]);
            order := t.path :: !order)
      tasks;
    let files =
      List.rev_map
        (fun path -> List.rev !(Hashtbl.find groups path))
        !order
      |> List.rev
    in
    let run_file = function
      | [] -> []
      | (_, t0) :: _ as its ->
          let sess =
            Axiomatic.session ~profiler t0.test.Litmus_parse.program
          in
          List.map
            (fun (i, t) ->
              (i, one ~robust_query:(fun () -> robust_of sess t.mode) t))
            its
    in
    let scattered =
      match task_pool with
      | None -> List.map run_file files
      | Some pool -> Tbtso_par.Pool.map_list pool run_file files
    in
    let n = List.length tasks in
    let out = Array.make n None in
    List.iter
      (List.iter (fun (i, v) -> out.(i) <- Some v))
      scattered;
    Array.to_list out
    |> List.map (function
         | Some v -> v
         | None -> assert false (* every index scattered exactly once *))
  end

let disagreement_witness v =
  match v.disagree with None -> None | Some ws -> Some (List.hd ws)

(* Budget exhaustion is a reported result, never an exception: an
   [exists] witness found in a partial exploration is still definitive,
   everything else degrades to "inconclusive". *)
let severity_of quantifier ~complete ~holds =
  match (quantifier, complete, holds) with
  | Litmus_parse.Exists, _, true -> `Ok
  | Litmus_parse.Exists, true, false -> `Ok
  | Litmus_parse.Exists, false, false -> `Inconclusive
  | Litmus_parse.Forall, true, true -> `Ok
  | Litmus_parse.Forall, true, false -> `Violated
  | Litmus_parse.Forall, false, _ -> `Inconclusive

let severity v =
  if v.disagree <> None then `Disagree
  else
    let q = v.task.test.Litmus_parse.quantifier in
    let sides =
      (match v.robustness with
      | Some (Robust_inconclusive _) -> [ `Inconclusive ]
      | Some (Robust | Not_robust _) | None -> [])
      @ (match v.result with
      | Some r ->
          [ severity_of q ~complete:r.Litmus_parse.complete ~holds:r.Litmus_parse.holds ]
      | None -> [])
      @
      match v.sat with
      | Some sc ->
          [ severity_of q ~complete:sc.sat_complete ~holds:sc.sat_holds ]
      | None -> []
    in
    let rank = function
      | `Ok -> 0
      | `Inconclusive -> 1
      | `Violated -> 2
      | `Disagree -> 3
    in
    List.fold_left
      (fun acc s -> if rank s > rank acc then s else acc)
      (`Ok : [ `Ok | `Violated | `Inconclusive | `Disagree ])
      sides

let verdict_cell quantifier ~complete ~holds =
  match (quantifier, complete, holds) with
  | Litmus_parse.Exists, _, true -> "witness OBSERVABLE"
  | Litmus_parse.Exists, true, false -> "witness impossible"
  | Litmus_parse.Forall, true, true -> "invariant holds"
  | Litmus_parse.Forall, true, false -> "invariant VIOLATED"
  | (Litmus_parse.Exists | Litmus_parse.Forall), false, _ ->
      "INCONCLUSIVE (state budget exceeded)"

let verdict_string v =
  match v.disagree with
  | Some ws ->
      Printf.sprintf "ORACLE DISAGREEMENT (%d outcome%s differ)"
        (List.length ws)
        (if List.length ws = 1 then "" else "s")
  | None -> (
      let q = v.task.test.Litmus_parse.quantifier in
      match (v.result, v.sat) with
      | Some r, _ ->
          verdict_cell q ~complete:r.Litmus_parse.complete
            ~holds:r.Litmus_parse.holds
      | None, Some sc ->
          verdict_cell q ~complete:sc.sat_complete ~holds:sc.sat_holds
      | None, None -> "NO ORACLE RAN")

let exit_code verdicts =
  List.fold_left
    (fun code v ->
      match severity v with
      | `Disagree -> 3
      | `Violated -> if code = 3 then code else 1
      | `Inconclusive -> if code = 3 || code = 1 then code else 2
      | `Ok -> code)
    0 verdicts

let sat_json sc =
  Json.obj
    [
      ("holds", Json.Bool sc.sat_holds);
      ("outcomes", Json.Int sc.sat_outcome_count);
      ("complete", Json.Bool sc.sat_complete);
      ("stats", Axiomatic.stats_json sc.sat_stats);
    ]

let record v =
  let base =
    match v.result with
    | Some r -> (
        match Litmus_parse.check_result_json r with
        | Json.Obj fields -> fields
        | _ -> [])
    | None -> []
  in
  let sat_fields =
    match v.sat with Some sc -> [ ("sat", sat_json sc) ] | None -> []
  in
  let robust_fields =
    match v.robustness with
    | None -> []
    | Some rc ->
        [
          ( "robust",
            Json.obj
              (match rc with
              | Robust -> [ ("holds", Json.Bool true) ]
              | Not_robust w ->
                  [ ("holds", Json.Bool false); ("witness", Adviser.outcome_json w) ]
              | Robust_inconclusive m ->
                  [ ("holds", Json.Null); ("inconclusive", Json.String m) ]) );
        ]
  in
  let agree_fields =
    match (v.result, v.sat) with
    | Some _, Some _ -> [ ("oracles_agree", Json.Bool (v.disagree = None)) ]
    | _ -> []
  in
  Json.obj
    (("file", Json.String v.task.path)
    :: ("name", Json.String v.task.test.Litmus_parse.name)
    :: ("mode", Json.String (Litmus_parse.mode_name v.task.mode))
    :: ("verdict", Json.String (verdict_string v))
    :: (base @ sat_fields @ robust_fields @ agree_fields))

let json_doc ~registry verdicts =
  let schema =
    if List.exists (fun v -> v.sat <> None) verdicts then "tbtso-sat/3"
    else "tbtso-litmus/4"
  in
  Json.obj
    [
      ("schema", Json.String schema);
      ("results", Json.List (List.map record verdicts));
      ("totals", Tbtso_obs.Metrics.to_json registry);
    ]
