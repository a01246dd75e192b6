(* Geo-replicated key-value store.

   Run with:  dune exec examples/wan_replication.exe

   The scenario the paper's introduction motivates: a KV store replicated
   across five continents, clients talking to the replica in their own
   region (the proxy). We replicate the store with three protocols and
   compare the commit latency each client observes:

   - paxos        all commands funnel through one leader (Virginia);
   - fast-paxos   fast everywhere, but needs n = 2e+f+1 = 7 replicas;
   - rgs-object   the paper's protocol: fast with only n = 2e+f-1 = 5.

   Every protocol tolerates f = 2 crashes and keeps two-step decisions
   under e = 2 crashes. *)

let () =
  let e = 2 and f = 2 in
  let topo = Workload.Topology.planet5 in
  let delta = Workload.Topology.max_oneway topo + 10 in
  let regions = Workload.Topology.regions topo in
  Format.printf "Topology %s: %s@."
    (Workload.Topology.name topo)
    (String.concat ", " regions);
  Format.printf "Workload: each region's client writes one key through its local proxy@.@.";
  Format.printf "%-12s %3s |" "protocol" "n";
  List.iter (fun r -> Format.printf " %10s" r) regions;
  Format.printf "   <- commit latency at the proxy (ms)@.";
  List.iter
    (fun (name, protocol) ->
      let (module P : Proto.Protocol.S) = protocol in
      let n = P.min_n ~e ~f in
      Format.printf "%-12s %3d |" name n;
      List.iteri
        (fun region_idx _region ->
          let proxy = region_idx in
          let client = region_idx in
          let command =
            Smr.Kv.encode { Smr.Kv.client; key = region_idx; action = Smr.Kv.Put 7 }
          in
          let t =
            Smr.Replica.Instance.create ~protocol ~n ~e ~f ~delta
              ~net:
                (Checker.Scenario.Wan
                   { latency = Workload.Topology.latency_fn topo; jitter = 3 })
              ~commands:[ (0, proxy, command) ]
              ()
          in
          ignore (Smr.Replica.Instance.run ~until:(40 * delta) t);
          assert (Smr.Replica.Instance.converged t);
          let committed_at_proxy (time, pid, (_slot, cmd, _ret)) =
            if pid = proxy && cmd = command then Some time else None
          in
          match List.find_map committed_at_proxy (Smr.Replica.Instance.outputs t) with
          | Some ms -> Format.printf " %10d" ms
          | None -> Format.printf " %10s" "-")
        regions;
      Format.printf "@.")
    [
      ("paxos", Baselines.Paxos.protocol);
      ("fast-paxos", Baselines.Fast_paxos.protocol);
      ("rgs-object", Core.Rgs.obj);
    ];
  Format.printf
    "@.The paper's protocol reaches Fast-Paxos-class latency with two fewer@.";
  Format.printf
    "replicas; Paxos makes every non-Virginia client pay a leader round trip.@."
