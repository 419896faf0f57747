external now_ns : unit -> int = "tbtso_obs_monotonic_ns" [@@noalloc]

type srec = {
  name : string;
  domain : int;
  t0 : int;
  mutable t1 : int;  (* -1 while open *)
  depth : int;
  mutable counters : (string * int) list;
}

type acc = {
  a_name : string;
  mutable a_ns : int;
  mutable a_calls : int;
  mutable a_items : int;
  mutable a_open : int;  (* start timestamp of the open section *)
}

(* One per (profiler, domain): written only by its domain, read by the
   merger after the work quiesces. Completed spans accumulate in
   [recs] (reverse order); [stack] holds the open spans, innermost
   first. *)
type buf = {
  b_domain : int;
  mutable recs : srec list;
  mutable stack : srec list;
  phases : (string, acc) Hashtbl.t;
}

type t = {
  on : bool;
  mu : Mutex.t;
  mutable bufs : buf list;
  key : buf Domain.DLS.key;
}

let make on =
  let mu = Mutex.create () in
  let rec t =
    lazy
      {
        on;
        mu;
        bufs = [];
        key =
          Domain.DLS.new_key (fun () ->
              let b =
                {
                  b_domain = (Domain.self () :> int);
                  recs = [];
                  stack = [];
                  phases = Hashtbl.create 8;
                }
              in
              let t = Lazy.force t in
              Mutex.lock t.mu;
              t.bufs <- b :: t.bufs;
              Mutex.unlock t.mu;
              b);
      }
  in
  Lazy.force t

let create () = make true

let disabled = make false

let enabled t = t.on

let buffer t = Domain.DLS.get t.key

(* Timeline spans ----------------------------------------------------- *)

let with_span t name f =
  if not t.on then f ()
  else begin
    let b = buffer t in
    let r =
      {
        name;
        domain = b.b_domain;
        t0 = now_ns ();
        t1 = -1;
        depth = List.length b.stack;
        counters = [];
      }
    in
    b.stack <- r :: b.stack;
    let finish () =
      r.t1 <- now_ns ();
      (match b.stack with
      | top :: rest when top == r -> b.stack <- rest
      | stack ->
          (* Unbalanced exit (an exception unwound past inner spans):
             close everything down to and including [r]. *)
          let rec pop = function
            | top :: rest ->
                if top != r then begin
                  top.t1 <- r.t1;
                  top.counters <- List.sort compare top.counters;
                  b.recs <- top :: b.recs;
                  pop rest
                end
                else rest
            | [] -> []
          in
          b.stack <- pop stack);
      r.counters <- List.sort compare r.counters;
      b.recs <- r :: b.recs
    in
    match f () with
    | v ->
        finish ();
        v
    | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        finish ();
        Printexc.raise_with_backtrace e bt
  end

let count t name n =
  if t.on then
    let b = buffer t in
    match b.stack with
    | [] -> ()
    | r :: _ -> (
        match List.assoc_opt name r.counters with
        | Some v ->
            r.counters <-
              (name, v + n) :: List.remove_assoc name r.counters
        | None -> r.counters <- (name, n) :: r.counters)

type span = {
  sp_name : string;
  sp_domain : int;
  sp_start_ns : int;
  sp_dur_ns : int;
  sp_depth : int;
  sp_counters : (string * int) list;
}

let snapshot t =
  Mutex.lock t.mu;
  let bufs = t.bufs in
  Mutex.unlock t.mu;
  bufs

let spans t =
  let closed = ref [] and open_ = ref [] in
  List.iter
    (fun b ->
      List.iter
        (fun r ->
          let s =
            {
              sp_name = r.name;
              sp_domain = r.domain;
              sp_start_ns = r.t0;
              sp_dur_ns = (if r.t1 < 0 then -1 else r.t1 - r.t0);
              sp_depth = r.depth;
              sp_counters = r.counters;
            }
          in
          if s.sp_dur_ns < 0 then open_ := s :: !open_
          else closed := s :: !closed)
        (b.recs @ b.stack))
    (snapshot t);
  List.stable_sort
    (fun a b -> compare a.sp_start_ns b.sp_start_ns)
    !closed
  @ List.stable_sort (fun a b -> compare a.sp_start_ns b.sp_start_ns) !open_

(* Phase accumulators ------------------------------------------------- *)

type phase = { p_on : bool; p_acc : acc }

let dummy_acc = { a_name = ""; a_ns = 0; a_calls = 0; a_items = 0; a_open = 0 }

let phase t name =
  if not t.on then { p_on = false; p_acc = dummy_acc }
  else
    let b = buffer t in
    let acc =
      match Hashtbl.find_opt b.phases name with
      | Some a -> a
      | None ->
          let a =
            { a_name = name; a_ns = 0; a_calls = 0; a_items = 0; a_open = 0 }
          in
          Hashtbl.add b.phases name a;
          a
    in
    { p_on = true; p_acc = acc }

let start p = if p.p_on then p.p_acc.a_open <- now_ns ()

let stop p =
  if p.p_on then begin
    let a = p.p_acc in
    a.a_ns <- a.a_ns + (now_ns () - a.a_open);
    a.a_calls <- a.a_calls + 1
  end

let items p n = if p.p_on then p.p_acc.a_items <- p.p_acc.a_items + n

type phase_total = {
  pt_name : string;
  pt_ns : int;
  pt_calls : int;
  pt_items : int;
}

let phase_totals t =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun b ->
      Hashtbl.iter
        (fun name a ->
          let cur =
            match Hashtbl.find_opt tbl name with
            | Some c -> c
            | None ->
                let c =
                  { pt_name = name; pt_ns = 0; pt_calls = 0; pt_items = 0 }
                in
                Hashtbl.add tbl name c;
                c
          in
          Hashtbl.replace tbl name
            {
              cur with
              pt_ns = cur.pt_ns + a.a_ns;
              pt_calls = cur.pt_calls + a.a_calls;
              pt_items = cur.pt_items + a.a_items;
            })
        b.phases)
    (snapshot t);
  Hashtbl.fold (fun _ c acc -> c :: acc) tbl []
  |> List.sort (fun a b -> compare (b.pt_ns, b.pt_name) (a.pt_ns, a.pt_name))

let reset t =
  List.iter
    (fun b ->
      b.recs <- [];
      b.stack <- [];
      Hashtbl.reset b.phases)
    (snapshot t)

(* Output ------------------------------------------------------------- *)

let per_sec pt =
  if pt.pt_items > 0 && pt.pt_ns > 0 then
    Some (float_of_int pt.pt_items /. (float_of_int pt.pt_ns *. 1e-9))
  else None

let pp_phase_table ppf t =
  let totals = phase_totals t in
  if totals <> [] then begin
    Format.fprintf ppf "%-24s %12s %10s %12s %12s@." "phase" "total ms"
      "calls" "items" "items/s";
    List.iter
      (fun pt ->
        Format.fprintf ppf "%-24s %12.3f %10d %12d %12s@." pt.pt_name
          (float_of_int pt.pt_ns *. 1e-6)
          pt.pt_calls pt.pt_items
          (match per_sec pt with
          | Some r -> Printf.sprintf "%.0f" r
          | None -> "-"))
      totals
  end

let to_chrome t ~pid w =
  let all = spans t in
  match all with
  | [] -> ()
  | first :: _ ->
      let t_base =
        List.fold_left (fun m s -> min m s.sp_start_ns) first.sp_start_ns all
      in
      let us ns = float_of_int (ns - t_base) /. 1e3 in
      let tids = Hashtbl.create 4 in
      List.iter
        (fun s ->
          if not (Hashtbl.mem tids s.sp_domain) then begin
            Hashtbl.add tids s.sp_domain ();
            Chrome.emit w
              (Chrome.thread_name ~pid ~tid:s.sp_domain
                 (Printf.sprintf "domain %d" s.sp_domain))
          end;
          let args =
            List.map (fun (k, v) -> (k, Json.Int v)) s.sp_counters
          in
          if s.sp_dur_ns < 0 then
            Chrome.emit w
              (Chrome.duration_begin ~name:s.sp_name ~cat:"span" ~pid
                 ~tid:s.sp_domain ~ts:(us s.sp_start_ns) ~args ())
          else
            Chrome.emit w
              (Chrome.complete ~name:s.sp_name ~cat:"span" ~pid
                 ~tid:s.sp_domain ~ts:(us s.sp_start_ns)
                 ~dur:(float_of_int s.sp_dur_ns /. 1e3)
                 ~args ()))
        all
