(* The benchmark's workloads.  Every number a run uses comes from here
   and from the seed; the library sees only the generated inputs. *)

open Ri_sim
module T = Ri_experiments.Traffic

type open_loop = {
  qps : float;
  trials : int;
      (** distinct trials (networks) per cycle; their merged sketch
          gives the simulated percentiles *)
}

type closed_loop = {
  queries_per_block : int;
  waves_per_block : int;
  det_blocks : int;
      (** blocks every run executes; the deterministic metrics cover
          exactly these, whatever else the time budget adds *)
}

type loop =
  | Open of open_loop
  | Closed of closed_loop  (** the closed loop is the timed phase *)

type t = {
  name : string;
  cfg : Config.t;
  opts : T.opts;
      (** the traffic model: service rate, link latency, topic skew; the
          window and update rate apply to the open loop only *)
  loop : loop;
  setup_builds : int;  (** cold builds behind the [setup_s] median *)
  replay_queries : int;  (** queries whose ranking decisions are replayed *)
}

type scale = Full | Tiny

(* The seed of the workloads' networks: the paper simulator's default.
   The run's own seed draws only the traffic over them. *)
let dataset_seed = 42

let names = [ "open-tree-10k"; "open-plod-rw-10k"; "closed-tree-100k" ]

let traffic ~duration ~update_rate =
  {
    T.default_opts with
    T.o_duration = duration;
    o_service_rate = 20_000.;
    o_link_latency = 0.2;
    o_update_rate = update_rate;
    o_zipf = 1.0;
    o_shift_every = 0;
  }

let config ~nodes ~topology ~seed =
  let cfg = Config.scaled Config.base ~num_nodes:nodes in
  let cfg = { cfg with Config.seed; topology } in
  (* ERI, the base search scheme, on every workload. *)
  Config.with_search cfg (Config.Ri (Config.eri cfg))

(* Sizes.  open-tree-10k holds ~450 queries in flight; a cycle is four
   0.25 s windows on four networks, ~5000 queries.  open-plod-rw-10k's
   cycle is eight 1 s windows, ~1600 queries and ~8000 update waves.  A
   closed-tree-100k block is 200 queries and 100 waves (2:1); its
   deterministic metrics cover its first 10 blocks, 2000 queries, so the
   p99 has 20 samples beyond it.  [Tiny] keeps every code path at a few
   hundred nodes for the self-test. *)
let make ~scale ~seed name =
  let tiny = scale = Tiny in
  let nodes full small = if tiny then small else full in
  match name with
  | "open-tree-10k" ->
      Some
        {
          name;
          cfg = config ~nodes:(nodes 10_000 400) ~topology:Config.Tree ~seed;
          opts = traffic ~duration:(if tiny then 0.04 else 0.25) ~update_rate:0.;
          loop = Open { qps = 5000.; trials = (if tiny then 2 else 4) };
          setup_builds = (if tiny then 2 else 11);
          replay_queries = (if tiny then 100 else 1000);
        }
  | "open-plod-rw-10k" ->
      Some
        {
          name;
          cfg =
            config ~nodes:(nodes 10_000 400) ~topology:Config.Power_law_graph ~seed;
          opts = traffic ~duration:(if tiny then 0.2 else 1.0) ~update_rate:1000.;
          loop = Open { qps = 200.; trials = (if tiny then 2 else 8) };
          setup_builds = (if tiny then 2 else 9);
          replay_queries = (if tiny then 100 else 1000);
        }
  | "closed-tree-100k" ->
      Some
        {
          name;
          cfg = config ~nodes:(nodes 100_000 2000) ~topology:Config.Tree ~seed;
          opts = traffic ~duration:0. ~update_rate:0.;
          loop =
            Closed
              (if tiny then
                 { queries_per_block = 20; waves_per_block = 10; det_blocks = 2 }
               else
                 { queries_per_block = 200; waves_per_block = 100; det_blocks = 10 });
          setup_builds = (if tiny then 2 else 5);
          replay_queries = (if tiny then 100 else 1000);
        }
  | _ -> None
