open Ri_util
open Ri_core

type forwarding = Ri_guided | Random_walk

type outcome = {
  found : int;
  satisfied : bool;
  nodes_visited : int;
  counters : Message.counters;
}

let messages o = Message.query_messages o.counters

type event =
  | Forwarded of { sender : int; receiver : int }
  | Returned of { sender : int; receiver : int }
  | Results of { at : int; count : int }
  | Timed_out of { sender : int; receiver : int; attempt : int }
  | Gave_up of { sender : int; receiver : int }
  | Reconciled of { a : int; b : int }

(* Aggregate per-query message counts land in the metrics registry once
   per query, from the outcome counters — never per message. *)
let m_queries mode =
  Ri_obs.Metrics.counter ~help:"Queries executed." ~labels:[ ("mode", mode) ]
    "ri_queries_total"

let m_ri_guided = m_queries "ri_guided"

let m_random_walk = m_queries "random_walk"

let m_parallel = m_queries "parallel"

let m_flood = m_queries "flood"

let m_forwards =
  Ri_obs.Metrics.counter ~help:"Query messages forwarded."
    "ri_query_forwards_total"

let m_returns =
  Ri_obs.Metrics.counter ~help:"Query messages returned (backtracks)."
    "ri_query_returns_total"

let m_results =
  Ri_obs.Metrics.counter ~help:"Result-pointer messages sent."
    "ri_query_results_total"

let m_satisfied =
  Ri_obs.Metrics.counter ~help:"Queries that met their stop condition."
    "ri_query_satisfied_total"

(* Distribution of per-query cost: the counters feed the totals above
   and, once per query, these sketches — which is where p95/p99 of
   messages and hops come from. *)
let s_messages =
  Ri_obs.Sketch.series ~help:"Messages per query (quantile sketch)."
    "ri_query_messages"

let s_hops =
  Ri_obs.Sketch.series ~help:"Forward hops per query (quantile sketch)."
    "ri_query_hops"

(* One query's aggregate cost: its mode's counter, the message totals
   and both sketches. *)
let publish kind ~satisfied (c : Message.counters) =
  if Ri_obs.Metrics.enabled () then begin
    Ri_obs.Metrics.incr kind;
    Ri_obs.Metrics.add m_forwards c.query_forwards;
    Ri_obs.Metrics.add m_returns c.query_returns;
    Ri_obs.Metrics.add m_results c.result_messages;
    if satisfied then Ri_obs.Metrics.incr m_satisfied;
    Ri_obs.Sketch.observe s_messages (float_of_int (Message.query_messages c));
    Ri_obs.Sketch.observe s_hops (float_of_int c.query_forwards)
  end

let record_outcome kind o =
  publish kind ~satisfied:o.satisfied o.counters;
  o

type frame = { node : int; from : int; mutable pending : int list }

(* The depth-first walk, reformulated as a message-driven state machine:
   exactly one message is in flight per query — the forward the walk
   just sent, or the return bouncing it back — so delivering that
   message yields at most one successor.  [run] drains the machine
   inline (the zero-latency schedule, reproducing the synchronous walk
   bit-for-bit: one token means delivery order cannot differ); the event
   engine instead routes each [send] through mailbox queueing and link
   latency, interleaving thousands of walks.  A fault plan makes a hop a
   multi-message affair — timeouts, retries, lazy anti-entropy — and all
   of it happens at the sender before the forward is emitted, so the
   faulty walk drains the same machine. *)
module Step = struct
  type kind = Forward | Return

  type send = { src : int; dst : int; kind : kind }

  (* What a faulty query carries beyond the fault-free walk. *)
  type fault_state = {
    plan : Fault.t;
    reconciled : (int * int, unit) Hashtbl.t;
        (* link pairs already reconciled during this query: anti-entropy
           runs once per link however many times the walk crosses it *)
    mutable budget_stopped : bool;
  }

  type t = {
    net : Network.t;
    query : Ri_content.Workload.query;
    forwarding : forwarding;
    rng : Prng.t;
    on_event : event -> unit;
    decide : Ri_obs.Decision.sink;
    live : bool;
    scheme_name : string;
    projected : int list;
    topics : Ri_content.Topic.id list;
    counters : Message.counters;
    visited : bool array;
    sent : (int * int, int) Hashtbl.t;
    max_sends : int;
    ranks : (int, int) Hashtbl.t;
    fault : fault_state option;
    mutable stack : frame list;
    mutable remaining : int;
    mutable found : int;
    mutable nodes_visited : int;
  }

  let sends t u v = Option.value ~default:0 (Hashtbl.find_opt t.sent (u, v))

  (* A forward [x -> y] that can never land: a crash-stopped receiver or
     an active cut between the two. *)
  let unreachable p x y = Fault.is_dead p y || not (Fault.same_side p x y)

  let process_visit t u =
    if not t.visited.(u) then begin
      t.visited.(u) <- true;
      t.nodes_visited <- t.nodes_visited + 1;
      let local = Network.count_matching t.net u t.topics in
      if local > 0 then begin
        t.counters.Message.result_messages <-
          t.counters.Message.result_messages + 1;
        t.on_event (Results { at = u; count = local });
        t.found <- t.found + local;
        t.remaining <- t.remaining - local
      end
    end

  let order_neighbors t u ~from =
    let is_candidate v =
      v <> from && sends t u v < t.max_sends
      &&
      match t.fault with
      | Some f -> not (Fault.knows_dead f.plan ~at:u ~dead:v)
      | None -> true
    in
    match t.forwarding with
    | Random_walk ->
        let nbrs = Network.neighbors t.net u in
        let count = ref 0 in
        Array.iter (fun v -> if is_candidate v then incr count) nbrs;
        let cands = Array.make !count 0 in
        let i = ref 0 in
        Array.iter
          (fun v ->
            if is_candidate v then begin
              cands.(!i) <- v;
              incr i
            end)
          nbrs;
        Prng.shuffle_in_place t.rng cands;
        Array.to_list cands
    | Ri_guided -> (
        (* Only neighbors the RI knows about are candidates: on a rooted
           construction that is exactly the downstream neighbors, and on
           a converged network every link has a row. *)
        match t.fault with
        | Some { plan = p; _ } when Fault.fallback p ->
            (* Graceful degradation: rows with detectable update gaps are
               not trusted — fresh rows rank by goodness as usual, stale
               ones follow in random (No-RI) order.  Demotion alone does
               most of the work: a garbage count can no longer outbid an
               honest one. *)
            let fresh v = not (Fault.stale p ~at:u ~peer:v) in
            let ranked =
              Scheme.rank_peers (Network.ri t.net u) ~query:t.projected
                ~keep:(fun v -> is_candidate v && fresh v)
            in
            let stale =
              List.filter
                (fun v -> is_candidate v && not (fresh v))
                (List.sort compare (Scheme.peers (Network.ri t.net u)))
            in
            if stale = [] then ranked
            else begin
              let arr = Array.of_list stale in
              Fault.shuffle p arr;
              Fault.note_fallbacks p (Array.length arr);
              ranked @ Array.to_list arr
            end
        | _ ->
            Scheme.rank_peers (Network.ri t.net u) ~query:t.projected
              ~keep:is_candidate)

  let blocked t x y =
    match t.fault with Some f -> unreachable f.plan x y | None -> false

  (* Oracle: matching documents actually reachable through candidate [v]
     when deciding at [u] — BFS with [u] removed (the query would arrive
     via [u], so paths back through it are not [v]'s to claim) and, under
     a fault plan, crash-stopped nodes and cut links impassable. *)
  let truth_of t u v =
    if blocked t u v then 0
    else begin
      let seen = Bytes.make (Network.size t.net) '\000' in
      Bytes.set seen u '\001';
      Bytes.set seen v '\001';
      let q = Queue.create () in
      Queue.add v q;
      let total = ref 0 in
      while not (Queue.is_empty q) do
        let x = Queue.pop q in
        total := !total + Network.count_matching t.net x t.topics;
        Array.iter
          (fun y ->
            if Bytes.get seen y = '\000' then begin
              Bytes.set seen y '\001';
              if not (blocked t x y) then Queue.add y q
            end)
          (Network.neighbors t.net x)
      done;
      !total
    end

  (* Provenance capture.  Everything here runs only when a Decision sink
     is recording — in particular the per-candidate oracle BFS, which
     costs O(edges) per decision and must never touch the measured query
     path. *)
  let emit_decide t u ~from order =
    let ri_goodness v =
      match t.forwarding with
      | Ri_guided ->
          Scheme.goodness (Network.ri t.net u) ~peer:v ~query:t.projected
      | Random_walk -> 0.
    in
    let stale_of v =
      match t.fault with
      | Some f -> Fault.stale f.plan ~at:u ~peer:v
      | None -> false
    in
    let wave_of v =
      if Network.has_ri t.net then
        Scheme.row_stamp (Network.ri t.net u) ~peer:v
      else 0
    in
    let cands =
      List.map
        (fun v ->
          {
            Ri_obs.Decision.peer = v;
            goodness = ri_goodness v;
            truth = truth_of t u v;
            stale = stale_of v;
            wave = wave_of v;
          })
        order
    in
    let oracle_best, oracle_rank, regret =
      match cands with
      | [] -> (-1, 0, 0)
      | first :: _ ->
          let _, bp, br, bt =
            List.fold_left
              (fun (i, bp, br, bt) (c : Ri_obs.Decision.candidate) ->
                if c.truth > bt || (c.truth = bt && c.peer < bp) then
                  (i + 1, c.peer, i, c.truth)
                else (i + 1, bp, br, bt))
              (0, -1, 0, min_int) cands
          in
          (bp, br, bt - first.Ri_obs.Decision.truth)
    in
    let stale_demoted =
      match t.fault with
      | Some f when Fault.fallback f.plan ->
          List.length (List.filter (fun c -> c.Ri_obs.Decision.stale) cands)
      | _ -> 0
    in
    Ri_obs.Decision.emit t.decide
      (Decide
         {
           node = u;
           from;
           scheme = t.scheme_name;
           candidates = cands;
           oracle_best;
           oracle_rank;
           regret;
           stale_demoted;
         })

  (* Every frame opens through here so each decision point is recorded
     exactly once, with the candidate list in true forwarding order. *)
  let ordered t u ~from =
    let order = order_neighbors t u ~from in
    if t.live then emit_decide t u ~from order;
    order

  (* Follow ranks (which candidate in forwarding order a frame tried)
     live in a side table touched only when recording, so the frame
     record — one allocation per visited node — stays at its
     provenance-free size. *)
  let next_rank t u =
    let r = try Hashtbl.find t.ranks u with Not_found -> 0 in
    Hashtbl.replace t.ranks u (r + 1);
    r

  (* Send the forward [u -> v]: each attempt is a real message.  Under a
     fault plan an attempt to a crash-stopped receiver, across a cut or
     over a flapping link times out and charges backoff; [retries]
     failures in a row, or the budget running out between attempts, and
     the sender gives up.  [true] means the forward landed. *)
  let rec transmit t u v ~attempt =
    t.counters.Message.query_forwards <- t.counters.Message.query_forwards + 1;
    t.on_event (Forwarded { sender = u; receiver = v });
    match t.fault with
    | None -> true
    | Some f ->
        (* A cross-cut forward can never land; like a dead receiver it
           consumes no flap draw. *)
        if not (unreachable f.plan u v || Fault.flap f.plan) then true
        else begin
          Fault.note_timeout f.plan ~attempt;
          t.on_event (Timed_out { sender = u; receiver = v; attempt });
          if t.live then
            Ri_obs.Decision.emit t.decide
              (Timeout { node = u; target = v; attempt });
          if attempt + 1 > Fault.retries f.plan then false
          else begin
            Fault.note_retry f.plan;
            t.counters.Message.query_forwards < Fault.query_budget f.plan
            && transmit t u v ~attempt:(attempt + 1)
          end
        end

  (* First contact after fault knowledge accrued on either side: lazy
     anti-entropy across this link before the query proceeds. *)
  let reconcile t u v =
    match t.fault with
    | Some f
      when Network.has_ri t.net
           && (Fault.dirty f.plan u || Fault.dirty f.plan v)
           && not (Hashtbl.mem f.reconciled (min u v, max u v)) ->
        Hashtbl.replace f.reconciled (min u v, max u v) ();
        Churn.reconcile t.net u v ~plan:f.plan ~counters:t.counters;
        t.on_event (Reconciled { a = u; b = v })
    | _ -> ()

  let give_up t u v =
    match t.fault with
    | Some f when not (Fault.same_side f.plan u v) ->
        (* Unreachable across an active cut: the peer is suspected, not
           buried.  No death certificate — post-heal anti-entropy must
           find both nodes alive — but the row gets a gap mark so
           ranking demotes it until the link is reconciled. *)
        Fault.note_missed f.plan ~at:u ~peer:v;
        t.on_event (Gave_up { sender = u; receiver = v })
    | Some f when not (Fault.knows_dead f.plan ~at:u ~dead:v) ->
        (* Presumed dead (possibly a false positive from flaps): remove
           the row so the garbage entry stops attracting the walk, and
           remember the certificate for gossip. *)
        ignore (Churn.detect_crash t.net u ~dead:v ~plan:f.plan);
        t.on_event (Gave_up { sender = u; receiver = v })
    | _ -> ()

  (* Produce the walk's next outgoing message, doing the send-side
     bookkeeping (link counts, counters, events, provenance, and under a
     plan the retries and anti-entropy) before the message leaves.
     [None] means the query is over: satisfied, out of budget, or the
     origin's frame is exhausted. *)
  let rec advance t =
    if t.remaining <= 0 then None
    else
      match t.stack with
      | [] -> None
      | top :: rest -> (
          match top.pending with
          | [] ->
              (* Exhausted: return the query to whoever sent it. *)
              t.stack <- rest;
              if top.from >= 0 then begin
                t.counters.Message.query_returns <-
                  t.counters.Message.query_returns + 1;
                t.on_event (Returned { sender = top.node; receiver = top.from });
                if t.live then
                  Ri_obs.Decision.emit t.decide
                    (Backtrack { node = top.node; target = top.from });
                Some { src = top.node; dst = top.from; kind = Return }
              end
              else advance t
          | v :: pending -> (
              top.pending <- pending;
              match t.fault with
              | Some f
                when t.counters.Message.query_forwards
                     >= Fault.query_budget f.plan ->
                  f.budget_stopped <- true;
                  Fault.note_budget_stop f.plan;
                  t.stack <- [];
                  None
              | _ ->
                  Hashtbl.replace t.sent (top.node, v) (sends t top.node v + 1);
                  (* Rank is claimed when forwarding begins, so a forward
                     abandoned after its retries still consumes its slot. *)
                  let rank = if t.live then next_rank t top.node else 0 in
                  if transmit t top.node v ~attempt:0 then begin
                    reconcile t top.node v;
                    if t.live then
                      Ri_obs.Decision.emit t.decide
                        (Follow { node = top.node; target = v; rank });
                    Some { src = top.node; dst = v; kind = Forward }
                  end
                  else begin
                    give_up t top.node v;
                    advance t
                  end))

  let deliver t { src; dst; kind } =
    match kind with
    | Return ->
        (* The child frame was popped when this return was sent; the
           receiver's own frame is on top again and resumes. *)
        advance t
    | Forward ->
        if Network.cycle_policy t.net = Network.Detect_recover && t.visited.(dst)
        then begin
          (* The revisited node detects the duplicate and bounces the
             query straight back. *)
          t.counters.Message.query_returns <-
            t.counters.Message.query_returns + 1;
          t.on_event (Returned { sender = dst; receiver = src });
          if t.live then
            Ri_obs.Decision.emit t.decide (Backtrack { node = dst; target = src });
          Some { src = dst; dst = src; kind = Return }
        end
        else begin
          process_visit t dst;
          if t.remaining > 0 then
            t.stack <-
              { node = dst; from = src; pending = ordered t dst ~from:src }
              :: t.stack;
          advance t
        end

  (* [who] labels validation errors, so [run]'s messages are unchanged
     when it delegates here. *)
  let start_for who ?rng ?(on_event = fun (_ : event) -> ())
      ?(decide = Ri_obs.Decision.null) ?plan net ~origin ~query ~forwarding =
    let n = Network.size net in
    if origin < 0 || origin >= n then
      invalid_arg (who ^ ": origin out of range");
    (match plan with
    | Some p when Fault.is_dead p origin ->
        invalid_arg (who ^ ": origin is crash-stopped")
    | _ -> ());
    (match forwarding with
    | Ri_guided ->
        if not (Network.has_ri net) then
          invalid_arg (who ^ ": Ri_guided needs a network with routing indices")
    | Random_walk -> ());
    let rng = match rng with Some r -> r | None -> Network.rng net in
    let live = Ri_obs.Decision.is_live decide in
    let scheme_name =
      match forwarding with
      | Random_walk -> "none"
      | Ri_guided -> (
          match Network.scheme net with
          | Some k -> Scheme.kind_name k
          | None -> "none")
    in
    let t =
      {
        net;
        query;
        forwarding;
        rng;
        on_event;
        decide;
        live;
        scheme_name;
        projected = Network.project_query net query.Ri_content.Workload.topics;
        topics = query.Ri_content.Workload.topics;
        counters = Message.create ();
        visited = Array.make n false;
        sent = Hashtbl.create 64;
        (* Per directed link, how many times this query may cross it.
           With detect-and-recover a node remembers the query and
           resumes its neighbor cursor, so each link is used once; with
           no-op a revisited node keeps no query state and re-descends
           ("extra messages are generated when we traverse a cycle more
           than once", Section 8.2) — the second crossing carries the
           repeat traversal, and the cap keeps the walk finite, standing
           in for the TTL any deployed system imposes. *)
        max_sends =
          (match Network.cycle_policy net with
          | Network.Detect_recover -> 1
          | Network.No_op -> 2);
        ranks = Hashtbl.create (if live then 32 else 1);
        fault =
          Option.map
            (fun plan ->
              { plan; reconciled = Hashtbl.create 8; budget_stopped = false })
            plan;
        stack = [];
        remaining = query.Ri_content.Workload.stop;
        found = 0;
        nodes_visited = 0;
      }
    in
    process_visit t origin;
    if t.remaining > 0 then
      t.stack <-
        [ { node = origin; from = -1; pending = ordered t origin ~from:(-1) } ];
    (t, advance t)

  let start ?rng ?on_event ?decide net ~origin ~query ~forwarding =
    start_for "Query.Step.start" ?rng ?on_event ?decide net ~origin ~query
      ~forwarding

  let outcome t =
    {
      found = t.found;
      satisfied = t.found >= t.query.Ri_content.Workload.stop;
      nodes_visited = t.nodes_visited;
      counters = t.counters;
    }

  let finish t =
    (if t.live then
       let reason =
         if t.found >= t.query.Ri_content.Workload.stop then "satisfied"
         else
           match t.fault with
           | Some { budget_stopped = true; _ } -> "budget"
           | _ -> "exhausted"
       in
       Ri_obs.Decision.emit t.decide
         (Stop
            {
              reason;
              found = t.found;
              forwards = t.counters.Message.query_forwards;
              returns = t.counters.Message.query_returns;
              visited = t.nodes_visited;
            }));
    record_outcome
      (match t.forwarding with
      | Ri_guided -> m_ri_guided
      | Random_walk -> m_random_walk)
      (outcome t)
end

let run ?rng ?on_event ?decide ?plan net ~origin ~query ~forwarding =
  (* Faulty or not, a query executes on the step machine — the same
     machine the event engine drives — drained inline: exactly the
     zero-latency schedule, which replays the synchronous walk
     bit-for-bit (see {!Step}). *)
  let t, first =
    Step.start_for "Query.run" ?rng ?on_event ?decide ?plan net ~origin ~query
      ~forwarding
  in
  let next = ref first in
  let continue = ref true in
  while !continue do
    match !next with
    | None -> continue := false
    | Some s -> next := Step.deliver t s
  done;
  Step.finish t

type parallel_outcome = {
  p_found : int;
  p_satisfied : bool;
  p_nodes_visited : int;
  p_rounds : int;
  p_counters : Message.counters;
}

let run_parallel ?(on_event = fun (_ : event) -> ()) net ~origin ~query ~branch =
  let n = Network.size net in
  if origin < 0 || origin >= n then
    invalid_arg "Query.run_parallel: origin out of range";
  if branch <= 0 then invalid_arg "Query.run_parallel: branch must be positive";
  if not (Network.has_ri net) then
    invalid_arg "Query.run_parallel: needs a network with routing indices";
  let projected = Network.project_query net query.Ri_content.Workload.topics in
  let topics = query.Ri_content.Workload.topics in
  let counters = Message.create () in
  let visited = Array.make n false in
  let found = ref 0 in
  let nodes_visited = ref 0 in
  let process u =
    visited.(u) <- true;
    incr nodes_visited;
    let local = Network.count_matching net u topics in
    if local > 0 then begin
      counters.result_messages <- counters.result_messages + 1;
      on_event (Results { at = u; count = local });
      found := !found + local
    end
  in
  process origin;
  let satisfied () = !found >= query.Ri_content.Workload.stop in
  let rec expand frontier rounds =
    if satisfied () || frontier = [] then rounds
    else begin
      (* Each frontier node simultaneously forwards to its [branch] best
         neighbors.  Duplicate deliveries within the round are dropped
         on receipt, like any repeat under detect-and-recover, but the
         messages were sent and count. *)
      let next = ref [] in
      List.iter
        (fun (u, from) ->
          let ranked =
            Scheme.rank_array (Network.ri net u) ~query:projected
              ~keep:(fun p -> p <> from)
          in
          let limit = min branch (Array.length ranked) in
          for i = 0 to limit - 1 do
            let v, _ = ranked.(i) in
            counters.query_forwards <- counters.query_forwards + 1;
            on_event (Forwarded { sender = u; receiver = v });
            if not visited.(v) then begin
              process v;
              next := (v, u) :: !next
            end
          done)
        frontier;
      expand !next (rounds + 1)
    end
  in
  let rounds = expand [ (origin, -1) ] 0 in
  publish m_parallel ~satisfied:(satisfied ()) counters;
  {
    p_found = !found;
    p_satisfied = satisfied ();
    p_nodes_visited = !nodes_visited;
    p_rounds = rounds;
    p_counters = counters;
  }

let flood ?(on_event = fun (_ : event) -> ()) ?plan net ~origin ~query ?ttl () =
  let n = Network.size net in
  if origin < 0 || origin >= n then invalid_arg "Query.flood: origin out of range";
  (match plan with
  | Some p when Fault.is_dead p origin ->
      invalid_arg "Query.flood: origin is crash-stopped"
  | _ -> ());
  let ttl = Option.value ttl ~default:max_int in
  let budget = match plan with Some p -> Fault.query_budget p | None -> max_int in
  let budget_stopped = ref false in
  let topics = query.Ri_content.Workload.topics in
  let counters = Message.create () in
  let processed = Array.make n false in
  let found = ref 0 in
  let nodes_visited = ref 0 in
  let q = Queue.create () in
  let process u ~depth ~from =
    processed.(u) <- true;
    incr nodes_visited;
    let local = Network.count_matching net u topics in
    if local > 0 then begin
      counters.result_messages <- counters.result_messages + 1;
      on_event (Results { at = u; count = local });
      found := !found + local
    end;
    if depth < ttl then
      Array.iter
        (fun v ->
          if v <> from then
            if counters.query_forwards < budget then begin
              counters.query_forwards <- counters.query_forwards + 1;
              on_event (Forwarded { sender = u; receiver = v });
              Queue.add (v, u, depth + 1) q
            end
            else if not !budget_stopped then begin
              budget_stopped := true;
              match plan with
              | Some p -> Fault.note_budget_stop p
              | None -> ()
            end)
        (Network.neighbors net u)
  in
  process origin ~depth:0 ~from:(-1);
  while not (Queue.is_empty q) do
    let v, from, depth = Queue.pop q in
    (* Duplicate deliveries are detected by message id and dropped; the
       message was sent and counted regardless.  A crash-stopped
       receiver swallows the copy silently — flooding is fire-and-forget
       and never retries. *)
    if not processed.(v) then
      match plan with
      | Some p when Fault.is_dead p v || not (Fault.same_side p from v) -> ()
      | _ -> process v ~depth ~from
  done;
  record_outcome m_flood
    {
      found = !found;
      satisfied = !found >= query.Ri_content.Workload.stop;
      nodes_visited = !nodes_visited;
      counters;
    }
