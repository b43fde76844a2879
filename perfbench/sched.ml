(* The serve_mixed request schedule, generated from the workload seed
   alone: the engine under test only ever sees the encoded frames.

   Arrivals are Poisson at [rate], rescaled so the [count] arrivals span
   exactly [0, duration): every seed then offers the same load over the
   same window. The gaps are the [count] quantiles of the exponential
   distribution in seeded order, so every seed draws the same gaps and
   only their order varies (independent draws moved the latency median
   by a tenth from seed to seed, against 3% between runs of one seed).
   The mix is stratified so its shares do not move with the seed: each
   block of ten requests holds eight SmoothE requests with fresh seeds
   (cache misses), one exact repeat of an earlier miss (a cache hit) and
   one greedy-DAG request with a fresh seed, in seeded order; each kind
   cycles through the graphs in seeded blocks of one of each.

   Why 80/10/10 and not 40/40/20: requests answered fast (hits, and
   greedy requests that find the executor idle) sit far below the
   executed misses, so the more of them there are, the lower on the
   sparse low edge of the misses the median falls. With 40% fast it
   moved by a seventh from seed to seed (IQR/median over five seeds),
   with 20% by a twentieth.

   Each SmoothE request caps its iterations at a cap from [iters], all
   below the default patience (30), so the cap always ends the run and
   the work per request is fixed by the schedule; the spread of caps
   keeps service times continuous, so the median moves smoothly with
   load instead of jumping between a few per-graph service times. Caps
   are dealt like the kinds, every cap once per block in seeded order,
   so every seed offers the same mix of service times. *)

type kind =
  | Miss
  | Repeat of int  (** index of the earlier miss whose frame it repeats *)
  | Greedy

type item = {
  due : float;  (** seconds after the start of the schedule *)
  kind : kind;
  graph : int;  (** index into the inline graphs *)
  frame : string;  (** the request as it goes on the wire *)
}

(* A repeat only targets a miss due at least this long before it, so
   the original has normally been answered and cached when the repeat
   arrives (requests take well under a second at the offered load). *)
let repeat_gap = 3.0

let iters = (4, 12)

let frame_of req = Json.to_string (Serve_protocol.request_to_json req)

let generate ~seed ~rate ~duration ~(graphs : string array) : item array =
  let rng = Rng.create seed in
  let count = max 1 (int_of_float (Float.round (rate *. duration))) in
  let gaps =
    Array.init count (fun i ->
        -.log (1.0 -. ((float_of_int i +. 0.5) /. float_of_int count)) /. rate)
  in
  Rng.shuffle rng gaps;
  let scale = duration /. Array.fold_left ( +. ) 0.0 gaps in
  let due = Array.make count 0.0 in
  for i = 1 to count - 1 do
    due.(i) <- due.(i - 1) +. (gaps.(i - 1) *. scale)
  done;
  let items = Array.make count { due = 0.0; kind = Miss; graph = 0; frame = "" } in
  let misses = ref [] in
  (* [deal block] hands out the elements of [block] in a fresh seeded
     order each time the previous order is used up *)
  let deal block =
    let pending = ref [] in
    fun () ->
      if !pending = [] then begin
        let a = Array.copy block in
        Rng.shuffle rng a;
        pending := Array.to_list a
      end;
      match !pending with
      | x :: rest ->
          pending := rest;
          x
      | [] -> assert false
  in
  let next_kind = deal [| `Miss; `Miss; `Miss; `Miss; `Miss; `Miss; `Miss; `Miss; `Repeat; `Greedy |] in
  let graph_ids = Array.init (Array.length graphs) Fun.id in
  let next_graph = [| deal graph_ids; deal graph_ids; deal graph_ids |] in
  let next_iters = deal (Array.init (snd iters - fst iters + 1) (fun i -> fst iters + i)) in
  for i = 0 to count - 1 do
    let kind = next_kind () in
    let graph =
      let k = match kind with `Miss -> 0 | `Repeat -> 1 | `Greedy -> 2 in
      next_graph.(k) ()
    in
    let fresh_seed = 1 + Rng.int rng 1_000_000 in
    let iters = if kind = `Miss then next_iters () else fst iters in
    let id = Printf.sprintf "q%d" i in
    let fresh method_ =
      frame_of
        {
          Serve_protocol.default_request with
          Serve_protocol.id;
          source = Serve_protocol.Inline graphs.(graph);
          method_;
          seed = fresh_seed;
          iters;
        }
    in
    let eligible = List.filter (fun j -> due.(j) <= due.(i) -. repeat_gap) !misses in
    (* a repeat of graph g repeats an earlier miss on g, or any earlier
       miss when g has none yet; with no eligible miss at all it runs
       as a miss itself *)
    let eligible =
      match List.filter (fun j -> items.(j).graph = graph) eligible with
      | [] -> eligible
      | same -> same
    in
    let item =
      if kind = `Miss || (kind = `Repeat && eligible = []) then
        { due = due.(i); kind = Miss; graph; frame = fresh Serve_protocol.Smoothe }
      else if kind = `Repeat then begin
        let pool = Array.of_list eligible in
        let j = pool.(Rng.int rng (Array.length pool)) in
        let original = items.(j) in
        let req =
          match Serve_protocol.request_of_json (Json.parse original.frame) with
          | Ok r -> { r with Serve_protocol.id }
          | Error e -> failwith ("schedule: own frame does not decode: " ^ e)
        in
        { due = due.(i); kind = Repeat j; graph = original.graph; frame = frame_of req }
      end
      else { due = due.(i); kind = Greedy; graph; frame = fresh Serve_protocol.Greedy_dag }
    in
    items.(i) <- item;
    if item.kind = Miss then misses := i :: !misses
  done;
  items
