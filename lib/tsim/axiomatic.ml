(* Axiomatic second oracle: compile a litmus program into clauses over
   order-encoded action times, in-formula Loadeq control flow and
   read-from choices, then answer mode queries (enumeration, robustness)
   incrementally against one long-lived solver. Mode timing axioms live
   behind activation literals, so a Δ-sweep or a robustness binary
   search reuses the clause database and the learned clauses of every
   earlier query. The encoding and its operational-equivalence argument
   are documented in axiomatic.mli; this file deliberately shares
   nothing with Litmus's exploration machinery beyond the AST and
   outcome types. *)

module S = Tbtso_sat.Solver
module Span = Tbtso_obs.Span

type stats = {
  paths : int;
  vars : int;
  clauses : int;
  solves : int;
  conflicts : int;
  decisions : int;
  propagations : int;
  learned : int;
  restarts : int;
  outcomes : int;
  elapsed : float;
}

type result = { outcomes : Litmus.outcome list; complete : bool; stats : stats }

let default_max_outcomes = 65_536

(* Tri-valued literals let the encoder treat boundary time atoms
   (T ≤ 0, T ≤ H) and statically-known control facts (position 0 always
   executes) as constants. *)
type tri = T | F | L of S.lit

(* A write event: the commit-time event id, the value written, the
   executed-literal of its position and — for CAS, whose write happens
   only on success — an activation literal. *)
type wrt = {
  wev : int;
  wval : int;
  wact : S.lit option;
  wex : tri;
  wthread : int;
  wpos : int;
}

(* Observable literals, the projection outcomes are read off and
   blocking clauses are built over. Each group is exactly-one. *)
type obs =
  | Ob_val of int * int * (int * S.lit) list  (* thread, reg, value -> lit *)
  | Ob_mem of int * (int * S.lit) list  (* addr, value -> lit *)

type session = {
  s : S.t;
  n : int;
  addrs : int;
  regs : int;
  h : int;
  combos : int;
  observables : obs list;
  sites : (int * int) list;  (* fence sites: (thread, store position) *)
  delta_act : int -> S.lit;
  cap_act : int -> S.lit;
  fence_act : int * int -> S.lit;
  mutable sc_guard : S.lit option;
  mutable sc_set : Litmus.outcome list;
  mutable outcomes_total : int;
  mutable elapsed : float;
  oversize : bool;  (* no formula was built: every query is incomplete *)
}

let validate programs =
  List.iter
    (List.iter (function
      | Litmus.Wait d when d < 0 ->
          invalid_arg "Axiomatic.explore: negative wait duration"
      | Litmus.Loadeq (_, _, skip) when skip < 0 ->
          invalid_arg "Axiomatic.explore: negative loadeq skip"
      | _ -> ()))
    programs

(* Loadeq path combinations of the program: the [paths] stats field. *)
let path_combos progs =
  Array.fold_left
    (fun acc prog ->
      let l = Array.length prog in
      let np = Array.make (l + 1) 0 in
      np.(l) <- 1;
      for k = l - 1 downto 0 do
        np.(k) <-
          (match prog.(k) with
          | Litmus.Loadeq (_, _, skip) -> np.(min l (k + 1 + skip)) + np.(k + 1)
          | _ -> np.(k + 1))
      done;
      acc * np.(0))
    1 progs

let encode ~addrs ~regs ~profiler programs =
  (* The whole formula build is the encode phase; items = clauses
     added. The solver's own propagate / analyze / simplify phases are
     attached through [S.set_profiler] and fill in during queries. *)
  let ph_encode = Span.phase profiler "sat.encode" in
  Span.start ph_encode;
  let t0 = Sys.time () in
  let s = S.create () in
  S.set_profiler s profiler;
  let progs = Array.of_list (List.map Array.of_list programs) in
  let n = Array.length progs in
  let len i = Array.length progs.(i) in
  let ntri = function T -> F | F -> T | L l -> L (S.negate l) in
  (* Clause construction goes through one reused scratch buffer: push
     tri-state literals with [cpush] ([T] marks the clause satisfied,
     [F] vanishes), commit with [cflush]. The hot constraint families
     below emit O(pairs · H) clauses, so the per-clause list building a
     naive [add_clause lits] interface implies was most of the encode's
     allocation. [cflush] hands the solver the literals in the order the
     old list pipeline did (reversed pushes — the solver re-reverses),
     keeping stored clauses, and hence search, byte-identical. *)
  let cbuf = ref (Array.make 16 (S.pos 0)) in
  let c_n = ref 0 in
  let c_sat = ref false in
  let cpush = function
    | T -> c_sat := true
    | F -> ()
    | L l ->
        if !c_n = Array.length !cbuf then begin
          let d = Array.make (2 * !c_n) (S.pos 0) in
          Array.blit !cbuf 0 d 0 !c_n;
          cbuf := d
        end;
        !cbuf.(!c_n) <- l;
        incr c_n
  in
  let cflush () =
    if not !c_sat then begin
      let b = !cbuf in
      let n = !c_n in
      for i = 0 to (n / 2) - 1 do
        let t = b.(i) in
        b.(i) <- b.(n - 1 - i);
        b.(n - 1 - i) <- t
      done;
      S.add_lits s b n
    end;
    c_sat := false;
    c_n := 0
  in
  let add_cl lits =
    List.iter cpush lits;
    cflush ()
  in
  (* --- control flow, in-formula ------------------------------------ *)
  (* One branch literal per Loadeq (true = value matched, branch
     taken); executed literals ex(i,k) are defined from them so the
     formula's executed set is exactly the control path the branch
     literals dictate. *)
  let br = Array.init n (fun i -> Array.make (len i) None) in
  Array.iteri
    (fun i prog ->
      Array.iteri
        (fun k op ->
          match op with
          | Litmus.Loadeq _ -> br.(i).(k) <- Some (S.pos (S.new_var s))
          | _ -> ())
        prog)
    progs;
  let succs i k =
    match progs.(i).(k) with
    | Litmus.Loadeq (_, _, skip) ->
        let b = Option.get br.(i).(k) in
        [ (k + 1 + skip, L b); (k + 1, L (S.negate b)) ]
    | _ -> [ (k + 1, T) ]
  in
  let preds = Array.init n (fun i -> Array.make (len i) []) in
  for i = 0 to n - 1 do
    for j = 0 to len i - 1 do
      List.iter
        (fun (k, cond) ->
          if k < len i then preds.(i).(k) <- (j, cond) :: preds.(i).(k))
        (succs i j)
    done
  done;
  (* Reified conjunction / disjunction over tri. *)
  let tri_and a b =
    match (a, b) with
    | T, x | x, T -> x
    | F, _ | _, F -> F
    | L la, L lb ->
        if la = lb then a
        else begin
          let e = S.pos (S.new_var s) in
          add_cl [ L (S.negate e); L la ];
          add_cl [ L (S.negate e); L lb ];
          add_cl [ L e; L (S.negate la); L (S.negate lb) ];
          L e
        end
  in
  let tri_or = function
    | [] -> F
    | [ e ] -> e
    | es when List.mem T es -> T
    | es -> (
        match List.filter (fun e -> e <> F) es with
        | [] -> F
        | [ e ] -> e
        | es ->
            let d = S.pos (S.new_var s) in
            List.iter (fun e -> add_cl [ ntri e; L d ]) es;
            add_cl (L (S.negate d) :: es);
            L d)
  in
  (* ex(i,k): position k of thread i executes; po edges carry the edge
     condition (ex of source ∧ branch polarity) for guarded program
     order. *)
  let ex = Array.init n (fun i -> Array.make (len i) T) in
  let edges = ref [] in
  for i = 0 to n - 1 do
    for k = 1 to len i - 1 do
      let es =
        List.map (fun (j, cond) -> (j, tri_and ex.(i).(j) cond)) preds.(i).(k)
      in
      ex.(i).(k) <- tri_or (List.map snd es);
      List.iter
        (fun (j, e) -> if e <> F then edges := (i, j, k, e) :: !edges)
        es
    done
  done;
  (* Same-thread co-occurrence: positions j ≤ k can both execute iff k
     is reachable from j in the control DAG. *)
  let reach =
    Array.init n (fun i ->
        let l = len i in
        let r = Array.init l (fun _ -> Array.make l false) in
        for j = l - 1 downto 0 do
          r.(j).(j) <- true;
          List.iter
            (fun (k, _) ->
              if k < l then
                for m = 0 to l - 1 do
                  if r.(k).(m) then r.(j).(m) <- true
                done)
            (succs i j)
        done;
        r)
  in
  let cooccur i j k =
    if j <= k then reach.(i).(j).(k) else reach.(i).(k).(j)
  in
  (* --- events and the horizon -------------------------------------- *)
  (* One issue event per position; one commit event per Store position
     (CAS writes memory at its own issue slot, so they alias). Events
     of unexecuted positions are phantoms: every constraint that gives
     them meaning is guarded by ex, so they float freely in the
     horizon and are ignored when a model is read off. *)
  let issue = Array.init n (fun i -> Array.make (len i) (-1)) in
  let commit = Array.init n (fun i -> Array.make (len i) (-1)) in
  let ev_meta = ref [] in
  let nev = ref 0 in
  let add_event i k is_commit =
    let e = !nev in
    incr nev;
    ev_meta := (i, k, is_commit) :: !ev_meta;
    e
  in
  Array.iteri
    (fun i prog ->
      Array.iteri
        (fun k op ->
          let e = add_event i k false in
          issue.(i).(k) <- e;
          match op with
          | Litmus.Store _ -> commit.(i).(k) <- add_event i k true
          | Litmus.Cas _ -> commit.(i).(k) <- e
          | _ -> ())
        prog)
    progs;
  let ev_meta = Array.of_list (List.rev !ev_meta) in
  let nev = !nev in
  let h =
    Array.fold_left
      (fun acc prog ->
        Array.fold_left
          (fun acc op ->
            acc + 1
            +
            match op with
            | Litmus.Store _ -> 1
            | Litmus.Wait d -> d
            | _ -> 0)
          acc prog)
      0 progs
  in
  (* Order encoding: o e t ⟺ T_e ≤ t, for t ∈ 1..H−1. The ladder
     literals and their negations are boxed once up front ([tl] / [tln]):
     every constraint family below iterates over all H time slots per
     event pair, so allocating a fresh [L _] on each [o] call dominated
     the whole encode. *)
  let tl =
    Array.init nev (fun _ ->
        Array.init (max 0 (h - 1)) (fun _ -> L (S.pos (S.new_var s))))
  in
  let tln =
    Array.map (Array.map (function L l -> L (S.negate l) | t -> t)) tl
  in
  let o e t = if t <= 0 then F else if t >= h then T else tl.(e).(t - 1) in
  (* [no e t] ≡ [ntri (o e t)], allocation-free. *)
  let no e t = if t <= 0 then T else if t >= h then F else tln.(e).(t - 1) in
  for e = 0 to nev - 1 do
    for t = 1 to h - 2 do
      cpush (no e t);
      cpush (o e (t + 1));
      cflush ()
    done
  done;
  (* T_u + g ≤ T_v under the guards, as direct clauses over ladders. *)
  let le_gap ?(guards = []) u v g =
    for t = 1 to h do
      List.iter cpush guards;
      cpush (no v t);
      cpush (o u (t - g));
      cflush ()
    done
  in
  (* Reified strict comparison T_u < T_v. The two clause directions
     force ¬lt(u,v) ⟺ T_v < T_u, so creating the literal for a pair
     also makes their times distinct. *)
  let ltc = Hashtbl.create 97 in
  let rec lt u v =
    if u = v then F
    else if u > v then ntri (lt v u)
    else
      match Hashtbl.find_opt ltc (u, v) with
      | Some p -> L p
      | None ->
          let p = S.pos (S.new_var s) in
          Hashtbl.add ltc (u, v) p;
          let pp = L p and np = L (S.negate p) in
          (* Each polarity of [p] is slot-1 watch of one clause per
             ladder rung: bulk-reserve both watch lists so the 2·H
             attaches below cost one allocation each instead of
             doubling through the distinctness ladder. *)
          S.reserve_watch s p h;
          S.reserve_watch s (S.negate p) h;
          for t = 1 to h do
            cpush np;
            cpush (no v t);
            cpush (o u (t - 1));
            cflush ();
            cpush pp;
            cpush (no u t);
            cpush (o v (t - 1));
            cflush ()
          done;
          pp
  in
  (* One action per time slot: force distinctness for every event pair
     whose order is not already entailed when both execute (same-thread
     issues are po-ordered, same-thread commits FIFO-ordered, and an
     issue precedes any commit of a po-later-or-equal store). Phantom
     events take leftover slots — the horizon has room for every event,
     so the extra distinctness is always satisfiable. *)
  for u = 0 to nev - 1 do
    for v = u + 1 to nev - 1 do
      let ti, ki, ci = ev_meta.(u) and tj, kj, cj = ev_meta.(v) in
      let ordered =
        ti = tj
        && (ci = cj
           || ((not ci) && cj && kj >= ki)
           || (ci && (not cj) && ki >= kj))
      in
      if not ordered then ignore (lt u v)
    done
  done;
  (* Program order along executed control edges, with wait gaps. *)
  List.iter
    (fun (i, j, k, e) ->
      let g = match progs.(i).(j) with Litmus.Wait d -> d + 1 | _ -> 1 in
      le_gap ~guards:[ ntri e ] issue.(i).(j) issue.(i).(k) g)
    !edges;
  (* --- store-buffer base axioms (mode-independent: TSO) ------------ *)
  let thread_stores =
    Array.init n (fun i ->
        let acc = ref [] in
        for k = len i - 1 downto 0 do
          match progs.(i).(k) with
          | Litmus.Store _ -> acc := k :: !acc
          | _ -> ()
        done;
        !acc)
  in
  Array.iteri
    (fun i prog ->
      let stores = thread_stores.(i) in
      List.iter
        (fun k ->
          le_gap ~guards:[ ntri ex.(i).(k) ] issue.(i).(k) commit.(i).(k) 1)
        stores;
      (* FIFO: same-thread commits in program order, pairwise guarded. *)
      List.iter
        (fun ka ->
          List.iter
            (fun kb ->
              if kb > ka && cooccur i ka kb then
                le_gap
                  ~guards:[ ntri ex.(i).(ka); ntri ex.(i).(kb) ]
                  commit.(i).(ka) commit.(i).(kb) 1)
            stores)
        stores;
      (* Drain barriers: every earlier store committed before a Fence
         or Cas issues. *)
      Array.iteri
        (fun k op ->
          match op with
          | Litmus.Fence | Litmus.Cas _ ->
              List.iter
                (fun j ->
                  if j < k && cooccur i j k then
                    le_gap
                      ~guards:[ ntri ex.(i).(j); ntri ex.(i).(k) ]
                      commit.(i).(j) issue.(i).(k) 1)
                stores
          | _ -> ())
        prog)
    progs;
  let all_stores =
    List.concat (List.init n (fun i -> List.map (fun k -> (i, k)) thread_stores.(i)))
  in
  (* --- mode timing axioms behind activation literals --------------- *)
  (* Δ grid: a_Δ → commit ≤ issue + Δ for every executed store. Grid
     points are created lazily and chained (a_Δ → a_Δ' for Δ < Δ', the
     semantic monotonicity) so learned clauses transfer across the
     sweep. SC is the Δ = 1 point: with one action per slot the commit
     must take the very next slot, which is observationally SC. *)
  let delta_tbl : (int, S.lit) Hashtbl.t = Hashtbl.create 7 in
  let delta_act d =
    match Hashtbl.find_opt delta_tbl d with
    | Some a -> a
    | None ->
        let a = S.pos (S.new_var s) in
        List.iter
          (fun (i, k) ->
            le_gap
              ~guards:[ L (S.negate a); ntri ex.(i).(k) ]
              commit.(i).(k) issue.(i).(k) (-d))
          all_stores;
        let lo = ref None and hi = ref None in
        Hashtbl.iter
          (fun d' a' ->
            if d' < d then (
              match !lo with
              | Some (dl, _) when dl >= d' -> ()
              | _ -> lo := Some (d', a'))
            else
              match !hi with
              | Some (dh, _) when dh <= d' -> ()
              | _ -> hi := Some (d', a'))
          delta_tbl;
        (match !lo with
        | Some (_, al) -> S.add_clause s [ S.negate al; a ]
        | None -> ());
        (match !hi with
        | Some (_, ah) -> S.add_clause s [ S.negate a; ah ]
        | None -> ());
        Hashtbl.add delta_tbl d a;
        a
  in
  (* TSO[S] capacity: for every store and every c-subset of its earlier
     co-occurring stores, the subset's oldest member must have
     committed when the store issues (FIFO makes this the exact
     at-most-c-buffered condition). *)
  let cap_tbl : (int, S.lit) Hashtbl.t = Hashtbl.create 7 in
  let cap_act c =
    match Hashtbl.find_opt cap_tbl c with
    | Some a -> a
    | None ->
        let a = S.pos (S.new_var s) in
        (if c <= 0 then
           List.iter
             (fun (i, k) -> add_cl [ L (S.negate a); ntri ex.(i).(k) ])
             all_stores
         else
           let rec subsets c lst =
             if c = 0 then [ [] ]
             else
               match lst with
               | [] -> []
               | x :: rest ->
                   List.map (fun t -> x :: t) (subsets (c - 1) rest)
                   @ subsets c rest
           in
           List.iter
             (fun (i, k) ->
               let earlier =
                 List.filter
                   (fun j -> j < k && cooccur i j k)
                   thread_stores.(i)
               in
               List.iter
                 (function
                   | [] -> ()
                   | oldest :: _ as sub ->
                       le_gap
                         ~guards:
                           (L (S.negate a) :: ntri ex.(i).(k)
                           :: List.map (fun j -> ntri ex.(i).(j)) sub)
                         commit.(i).(oldest) issue.(i).(k) 1)
                 (subsets c earlier))
             all_stores);
        Hashtbl.add cap_tbl c a;
        a
  in
  (* Fence-site selectors: f(i,k) → store k commits before any later
     instruction of its thread issues (a fence inserted right after the
     store). Queries pass the active selectors as assumptions; an
     unassumed selector costs nothing (its false polarity is always
     available). *)
  let sites = List.filter (fun (i, k) -> k < len i - 1) all_stores in
  let fence_tbl : (int * int, S.lit) Hashtbl.t = Hashtbl.create 7 in
  let fence_act (i, k) =
    match Hashtbl.find_opt fence_tbl (i, k) with
    | Some f -> f
    | None ->
        if not (List.mem (i, k) sites) then
          invalid_arg "Axiomatic: not a fence site";
        let f = S.pos (S.new_var s) in
        for k' = k + 1 to len i - 1 do
          if cooccur i k k' then
            le_gap
              ~guards:[ L (S.negate f); ntri ex.(i).(k); ntri ex.(i).(k') ]
              commit.(i).(k) issue.(i).(k') 1
        done;
        Hashtbl.add fence_tbl (i, k) f;
        f
  in
  (* --- reads ------------------------------------------------------- *)
  let cas_s = Array.init n (fun i -> Array.make (len i) None) in
  Array.iteri
    (fun i prog ->
      Array.iteri
        (fun k op ->
          match op with
          | Litmus.Cas _ -> cas_s.(i).(k) <- Some (S.pos (S.new_var s))
          | _ -> ())
        prog)
    progs;
  let writes = Hashtbl.create 7 in
  let add_write a w =
    Hashtbl.replace writes a
      (w :: Option.value ~default:[] (Hashtbl.find_opt writes a))
  in
  Array.iteri
    (fun i prog ->
      Array.iteri
        (fun k op ->
          match op with
          | Litmus.Store (a, v) ->
              add_write a
                {
                  wev = commit.(i).(k);
                  wval = v;
                  wact = None;
                  wex = ex.(i).(k);
                  wthread = i;
                  wpos = k;
                }
          | Litmus.Cas (a, _, d, _) ->
              add_write a
                {
                  wev = issue.(i).(k);
                  wval = d;
                  wact = cas_s.(i).(k);
                  wex = ex.(i).(k);
                  wthread = i;
                  wpos = k;
                }
          | _ -> ())
        prog)
    progs;
  let writes_to a = Option.value ~default:[] (Hashtbl.find_opt writes a) in
  (* Read-from with dynamic forwarding: an exactly-one choice among
     forwarding from the newest executed earlier same-address own store
     (still buffered at read time), the co-latest committed write, and
     the initial 0. Exclusivity of the alternatives is semantic (their
     side conditions contradict pairwise), so only the at-least-one
     clause — guarded by the read's ex — is added. *)
  let encode_read i k a =
    let x = issue.(i).(k) in
    let own =
      List.filter
        (fun j ->
          j < k && cooccur i j k
          && match progs.(i).(j) with Litmus.Store (a', _) -> a' = a | _ -> false)
        thread_stores.(i)
    in
    let fwd_srcs =
      List.map
        (fun j ->
          let r = S.pos (S.new_var s) in
          add_cl [ L (S.negate r); ex.(i).(j) ];
          add_cl [ L (S.negate r); lt x commit.(i).(j) ];
          List.iter
            (fun j' ->
              if j' > j then add_cl [ L (S.negate r); ntri ex.(i).(j') ])
            own;
          let v =
            match progs.(i).(j) with Litmus.Store (_, v) -> v | _ -> 0
          in
          (L r, v))
        own
    in
    let cands =
      List.filter (fun w -> not (w.wthread = i && w.wpos >= k)) (writes_to a)
    in
    let mem_srcs =
      List.map
        (fun w ->
          let r = S.pos (S.new_var s) in
          add_cl [ L (S.negate r); w.wex ];
          (match w.wact with
          | Some al -> add_cl [ L (S.negate r); L al ]
          | None -> ());
          add_cl [ L (S.negate r); lt w.wev x ];
          (* no own store may still be buffered at the read *)
          List.iter
            (fun j ->
              add_cl
                [ L (S.negate r); ntri ex.(i).(j); lt commit.(i).(j) x ])
            own;
          (* co-latest: every other active write is older or after x *)
          List.iter
            (fun w' ->
              if not (w'.wthread = w.wthread && w'.wpos = w.wpos) then
                add_cl
                  ([ L (S.negate r); ntri w'.wex ]
                  @ (match w'.wact with
                    | Some al -> [ L (S.negate al) ]
                    | None -> [])
                  @ [ lt w'.wev w.wev; lt x w'.wev ]))
            cands;
          (L r, w.wval))
        cands
    in
    let r0 = S.pos (S.new_var s) in
    List.iter
      (fun w ->
        add_cl
          ([ L (S.negate r0); ntri w.wex ]
          @ (match w.wact with Some al -> [ L (S.negate al) ] | None -> [])
          @ [ lt x w.wev ]))
      cands;
    List.iter
      (fun j ->
        add_cl [ L (S.negate r0); ntri ex.(i).(j); lt commit.(i).(j) x ])
      own;
    let srcs = ((L r0, 0) :: fwd_srcs) @ mem_srcs in
    add_cl (ntri ex.(i).(k) :: List.map fst srcs);
    srcs
  in
  (* Collapse source alternatives to per-value literals (the observable
     granularity): rf → its value, pairwise at-most-one. *)
  let val_lits srcs =
    let tbl = Hashtbl.create 7 in
    List.iter
      (fun (l, v) ->
        let vl =
          match Hashtbl.find_opt tbl v with
          | Some vl -> vl
          | None ->
              let vl = S.pos (S.new_var s) in
              Hashtbl.add tbl v vl;
              vl
        in
        add_cl [ ntri l; L vl ])
      srcs;
    let pairs = Hashtbl.fold (fun v l acc -> (v, l) :: acc) tbl [] in
    let rec amo = function
      | [] -> ()
      | (_, l) :: rest ->
          List.iter
            (fun (_, l') -> add_cl [ L (S.negate l); L (S.negate l') ])
            rest;
          amo rest
    in
    amo pairs;
    pairs
  in
  let read_vals = Array.init n (fun i -> Array.make (len i) []) in
  Array.iteri
    (fun i prog ->
      Array.iteri
        (fun k op ->
          match op with
          | Litmus.Load (a, _) ->
              read_vals.(i).(k) <- val_lits (encode_read i k a)
          | Litmus.Loadeq (a, v0, _) ->
              (* The read's value decides the branch literal. *)
              let b = Option.get br.(i).(k) in
              List.iter
                (fun (l, v) ->
                  if v = v0 then add_cl [ ntri l; L b ]
                  else add_cl [ ntri l; L (S.negate b) ])
                (encode_read i k a)
          | Litmus.Cas (a, e, _, _) ->
              (* Reads memory directly: the drain barrier above forces
                 any own earlier store to have committed. *)
              let sl = Option.get cas_s.(i).(k) in
              List.iter
                (fun (l, v) ->
                  if v = e then add_cl [ ntri l; L sl ]
                  else add_cl [ ntri l; L (S.negate sl) ])
                (encode_read i k a)
          | _ -> ())
        prog)
    progs;
  (* --- observables ------------------------------------------------- *)
  (* Register values: the last executed program-order writer of each
     register decides it. With in-formula control flow the last writer
     is dynamic, so it is selected by last-writer literals (exactly-one
     with the no-writer case) and funnelled into per-value register
     literals. *)
  let regs_bound =
    Array.fold_left
      (fun acc prog ->
        Array.fold_left
          (fun acc op ->
            match op with
            | Litmus.Load (_, r) | Litmus.Cas (_, _, _, r) -> max acc (r + 1)
            | _ -> acc)
          acc prog)
      0 progs
  in
  let observables = ref [] in
  for i = 0 to n - 1 do
    for r = 0 to regs_bound - 1 do
      let writers = ref [] in
      for k = len i - 1 downto 0 do
        match progs.(i).(k) with
        | Litmus.Load (_, r') | Litmus.Cas (_, _, _, r') ->
            if r' = r then writers := k :: !writers
        | _ -> ()
      done;
      let writers = !writers in
      if writers <> [] then begin
        let lws =
          List.map
            (fun k ->
              let lw = S.pos (S.new_var s) in
              add_cl [ L (S.negate lw); ex.(i).(k) ];
              List.iter
                (fun k' ->
                  if k' > k then add_cl [ L (S.negate lw); ntri ex.(i).(k') ])
                writers;
              add_cl
                (L lw :: ntri ex.(i).(k)
                :: List.filter_map
                     (fun k' -> if k' > k then Some ex.(i).(k') else None)
                     writers);
              (k, lw))
            writers
        in
        let lw_none = S.pos (S.new_var s) in
        List.iter
          (fun k -> add_cl [ L (S.negate lw_none); ntri ex.(i).(k) ])
          writers;
        add_cl (L lw_none :: List.map (fun k -> ex.(i).(k)) writers);
        let rv_tbl = Hashtbl.create 7 in
        let rv v =
          match Hashtbl.find_opt rv_tbl v with
          | Some l -> l
          | None ->
              let l = S.pos (S.new_var s) in
              Hashtbl.add rv_tbl v l;
              l
        in
        List.iter
          (fun (k, lw) ->
            match progs.(i).(k) with
            | Litmus.Load _ ->
                List.iter
                  (fun (v, vl) ->
                    add_cl
                      [ L (S.negate lw); L (S.negate vl); L (rv v) ])
                  read_vals.(i).(k)
            | Litmus.Cas _ ->
                let sl = Option.get cas_s.(i).(k) in
                add_cl [ L (S.negate lw); L (S.negate sl); L (rv 1) ];
                add_cl [ L (S.negate lw); L sl; L (rv 0) ]
            | _ -> ())
          lws;
        add_cl [ L (S.negate lw_none); L (rv 0) ];
        let pairs = Hashtbl.fold (fun v l acc -> (v, l) :: acc) rv_tbl [] in
        let rec amo = function
          | [] -> ()
          | (_, l) :: rest ->
              List.iter
                (fun (_, l') -> add_cl [ L (S.negate l); L (S.negate l') ])
                rest;
              amo rest
        in
        amo pairs;
        observables := Ob_val (i, r, pairs) :: !observables
      end
    done
  done;
  (* Final memory: the co-latest executed active write per address
     (exactly-one with the no-active-write case). *)
  Hashtbl.iter
    (fun a ws ->
      let fws =
        List.map
          (fun w ->
            let f = S.pos (S.new_var s) in
            add_cl [ L (S.negate f); w.wex ];
            (match w.wact with
            | Some al -> add_cl [ L (S.negate f); L al ]
            | None -> ());
            List.iter
              (fun w' ->
                if not (w'.wthread = w.wthread && w'.wpos = w.wpos) then
                  add_cl
                    ([ L (S.negate f); ntri w'.wex ]
                    @ (match w'.wact with
                      | Some al -> [ L (S.negate al) ]
                      | None -> [])
                    @ [ lt w'.wev w.wev ]))
              ws;
            (f, w))
          ws
      in
      let m0 = S.pos (S.new_var s) in
      List.iter
        (fun w ->
          add_cl
            ([ L (S.negate m0); ntri w.wex ]
            @
            match w.wact with Some al -> [ L (S.negate al) ] | None -> []))
        ws;
      add_cl (L m0 :: List.map (fun (f, _) -> L f) fws);
      let pairs =
        val_lits (List.map (fun (f, w) -> (L f, w.wval)) fws @ [ (L m0, 0) ])
      in
      observables := Ob_mem (a, pairs) :: !observables)
    writes;
  let sess =
    {
      s;
      n;
      addrs;
      regs;
      h;
      combos = path_combos progs;
      observables = !observables;
      sites;
      delta_act;
      cap_act;
      fence_act;
      sc_guard = None;
      sc_set = [];
      outcomes_total = 0;
      elapsed = Sys.time () -. t0;
      oversize = false;
    }
  in
  Span.stop ph_encode;
  Span.items ph_encode (S.n_clauses s);
  sess

(* The order encoding boxes one literal per event per time slot,
   [events × (H − 1)] of them, and the pairwise constraint families add
   clauses for every event pair at every slot, so the build's memory
   grows as [events² × (H − 1)]: about 150 bytes per unit, measured on
   programs of 4 to 25 events. Past this size the session builds
   nothing and every enumeration reports incomplete, where the build
   would take more than ~0.6 GB (a wait of 10^7 racing a load is
   1.6·10^8 units). The largest formula of the corpus, the tests and
   the benchmark workloads is ~10^5 units; the flag protocol at the
   paper's Δ = 50,000 is 3.2·10^6. *)
let max_formula = 4_000_000

let session ?(addrs = 4) ?(regs = 4) ?(profiler = Span.disabled) programs =
  validate programs;
  let progs = Array.of_list (List.map Array.of_list programs) in
  (* Events and horizon as [encode] counts them. Capping a wait at
     [max_formula + 1] keeps the sum from overflowing and cannot change
     the decision: a capped wait alone exceeds the limit. *)
  let nev, h =
    Array.fold_left
      (Array.fold_left (fun (nev, h) op ->
           match op with
           | Litmus.Store _ -> (nev + 2, h + 2)
           | Litmus.Wait d -> (nev + 1, h + 1 + min d (max_formula + 1))
           | _ -> (nev + 1, h + 1)))
      (0, 0) progs
  in
  (* [events² × (H − 1) > max_formula], without overflowing. *)
  let oversize = nev > 0 && h - 1 > max_formula / (nev * nev) in
  if not oversize then encode ~addrs ~regs ~profiler programs
  else
    let refused _ = invalid_arg "Axiomatic: formula too large" in
    {
      s = S.create ();
      n = Array.length progs;
      addrs;
      regs;
      h;
      combos = path_combos progs;
      observables = [];
      sites = [];
      delta_act = refused;
      cap_act = refused;
      fence_act = refused;
      sc_guard = None;
      sc_set = [];
      outcomes_total = 0;
      elapsed = 0.0;
      oversize = true;
    }

let horizon sess = sess.h
let path_combinations sess = sess.combos
let fence_sites sess = sess.sites

let mode_assumptions sess mode =
  match mode with
  | Litmus.M_sc -> if sess.h > 1 then [ sess.delta_act 1 ] else []
  | Litmus.M_tso -> []
  | Litmus.M_tbtso d -> if d >= sess.h then [] else [ sess.delta_act d ]
  | Litmus.M_tsos c -> [ sess.cap_act c ]

let extract sess =
  let regs_a = Array.init sess.n (fun _ -> Array.make sess.regs 0) in
  let mem = Array.make sess.addrs 0 in
  List.iter
    (function
      | Ob_val (i, r, pairs) ->
          List.iter
            (fun (v, l) -> if S.lit_value sess.s l then regs_a.(i).(r) <- v)
            pairs
      | Ob_mem (a, pairs) ->
          List.iter
            (fun (v, l) -> if S.lit_value sess.s l then mem.(a) <- v)
            pairs)
    sess.observables;
  { Litmus.regs = regs_a; mem }

(* Forbid the current observable projection, under the query guard so
   the clause can be retired when the query ends. *)
let block sess guard =
  S.add_clause sess.s
    (S.negate guard
    :: List.concat_map
         (function
           | Ob_val (_, _, pairs) | Ob_mem (_, pairs) ->
               List.filter_map
                 (fun (_, l) ->
                   if S.lit_value sess.s l then Some (S.negate l) else None)
                 pairs)
         sess.observables)

let enumerate_guarded sess ~assumptions ~guard ~max_outcomes =
  let found = Hashtbl.create 64 in
  let complete = ref true in
  let continue_ = ref true in
  let assumptions = guard :: assumptions in
  while !continue_ do
    if not (S.solve ~assumptions sess.s) then continue_ := false
    else begin
      Hashtbl.replace found (extract sess) ();
      if Hashtbl.length found >= max_outcomes then begin
        complete := false;
        continue_ := false
      end
      else block sess guard
    end
  done;
  ( List.sort compare (Hashtbl.fold (fun o () acc -> o :: acc) found []),
    !complete )

let stats_of sess ~outcomes ~elapsed =
  let st = S.stats sess.s in
  {
    paths = sess.combos;
    vars = S.n_vars sess.s;
    clauses = S.n_clauses sess.s;
    solves = st.S.solves;
    conflicts = st.S.conflicts;
    decisions = st.S.decisions;
    propagations = st.S.propagations;
    learned = st.S.learned;
    restarts = st.S.restarts;
    outcomes;
    elapsed;
  }

let session_stats sess =
  stats_of sess ~outcomes:sess.outcomes_total ~elapsed:sess.elapsed

(* The SC outcome set is the robustness baseline: enumerated once, its
   blocking clauses stay behind a guard literal that later containment
   queries re-assume. *)
let sc_baseline sess =
  match sess.sc_guard with
  | Some q -> (q, sess.sc_set)
  | None when sess.oversize ->
      failwith "Axiomatic: SC baseline formula too large"
  | None ->
      let t0 = Sys.time () in
      let q = S.pos (S.new_var sess.s) in
      let outcomes, complete =
        enumerate_guarded sess
          ~assumptions:(mode_assumptions sess Litmus.M_sc)
          ~guard:q ~max_outcomes:default_max_outcomes
      in
      if not complete then
        failwith "Axiomatic: SC baseline outcome budget exhausted";
      sess.sc_guard <- Some q;
      sess.sc_set <- outcomes;
      sess.outcomes_total <- sess.outcomes_total + List.length outcomes;
      sess.elapsed <- sess.elapsed +. (Sys.time () -. t0);
      (q, outcomes)

let sc_outcomes sess = snd (sc_baseline sess)

let enumerate_session sess ?(fences = []) ?(max_outcomes = default_max_outcomes)
    mode =
  let t0 = Sys.time () in
  let fence_lits = List.map sess.fence_act fences in
  let outcomes, complete =
    if sess.oversize then ([], false)
    else if mode = Litmus.M_sc && fences = [] && sess.sc_guard <> None then
      (sess.sc_set, true)
    else begin
      let q = S.pos (S.new_var sess.s) in
      let outcomes, complete =
        enumerate_guarded sess
          ~assumptions:(mode_assumptions sess mode @ fence_lits)
          ~guard:q ~max_outcomes
      in
      (* Retire the query: its blocking clauses (and any learned clause
         that resolved against them) become permanently satisfied and
         are reclaimed; mode-independent learned clauses survive for
         the next query. *)
      S.add_clause sess.s [ S.negate q ];
      S.simplify sess.s;
      sess.outcomes_total <- sess.outcomes_total + List.length outcomes;
      (outcomes, complete)
    end
  in
  let dt = Sys.time () -. t0 in
  sess.elapsed <- sess.elapsed +. dt;
  {
    outcomes;
    complete;
    stats = stats_of sess ~outcomes:(List.length outcomes) ~elapsed:dt;
  }

let robust sess ?(fences = []) mode =
  let t0 = Sys.time () in
  let q_sc, _ = sc_baseline sess in
  let assumptions =
    (q_sc :: mode_assumptions sess mode) @ List.map sess.fence_act fences
  in
  let r =
    if S.solve ~assumptions sess.s then `Witness (extract sess) else `Robust
  in
  sess.elapsed <- sess.elapsed +. (Sys.time () -. t0);
  r

let explore ~mode ?(addrs = 4) ?(regs = 4)
    ?(max_outcomes = default_max_outcomes) ?profiler programs =
  let sess = session ~addrs ~regs ?profiler programs in
  let r = enumerate_session sess ~max_outcomes mode in
  { r with stats = { r.stats with elapsed = sess.elapsed } }

let enumerate ~mode ?addrs ?regs ?max_outcomes programs =
  let r = explore ~mode ?addrs ?regs ?max_outcomes programs in
  if not r.complete then
    failwith "Axiomatic.enumerate: outcome budget exhausted";
  r.outcomes

let pp_stats fmt s =
  Format.fprintf fmt
    "%d paths, %d vars, %d clauses, %d solves, %d conflicts, %d decisions, \
     %d learned, %d restarts, %d outcomes, %.3fs"
    s.paths s.vars s.clauses s.solves s.conflicts s.decisions s.learned
    s.restarts s.outcomes s.elapsed

let stats_json s =
  let open Tbtso_obs in
  Json.obj
    [
      ("paths", Json.Int s.paths);
      ("vars", Json.Int s.vars);
      ("clauses", Json.Int s.clauses);
      ("solves", Json.Int s.solves);
      ("conflicts", Json.Int s.conflicts);
      ("decisions", Json.Int s.decisions);
      ("propagations", Json.Int s.propagations);
      ("learned", Json.Int s.learned);
      ("restarts", Json.Int s.restarts);
      ("outcomes", Json.Int s.outcomes);
      ("elapsed_s", Json.Float s.elapsed);
    ]

let record_stats registry s =
  let open Tbtso_obs in
  Metrics.add (Metrics.counter registry "sat.paths") s.paths;
  Metrics.add (Metrics.counter registry "sat.vars") s.vars;
  Metrics.add (Metrics.counter registry "sat.clauses") s.clauses;
  Metrics.add (Metrics.counter registry "sat.solves") s.solves;
  Metrics.add (Metrics.counter registry "sat.conflicts") s.conflicts;
  Metrics.add (Metrics.counter registry "sat.decisions") s.decisions;
  Metrics.add (Metrics.counter registry "sat.propagations") s.propagations;
  Metrics.add (Metrics.counter registry "sat.learned") s.learned;
  Metrics.add (Metrics.counter registry "sat.restarts") s.restarts;
  Metrics.add (Metrics.counter registry "sat.outcomes") s.outcomes;
  Metrics.add (Metrics.counter registry "sat.explorations") 1;
  let elapsed = Metrics.gauge registry "sat.elapsed_s" in
  Metrics.set elapsed (Metrics.gauge_value elapsed +. s.elapsed)
