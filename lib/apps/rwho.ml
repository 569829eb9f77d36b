module Kernel = Hemlock_os.Kernel
module Proc = Hemlock_os.Proc
module Fs = Hemlock_sfs.Fs
module Prot = Hemlock_vm.Prot
module Stats = Hemlock_util.Stats
module Prng = Hemlock_util.Prng
module Serializer = Hemlock_baseline.Serializer
module Shm_heap = Hemlock_runtime.Shm_heap
module Shared_list = Hemlock_runtime.Shared_list
module Shared_table = Hemlock_runtime.Shared_table

type user = { u_name : string; u_tty : string; u_idle : int }

type status = {
  st_host : string;
  st_load1 : int;
  st_load5 : int;
  st_load15 : int;
  st_uptime : int;
  st_users : user list;
}

let hosts n = List.init n (fun i -> Printf.sprintf "host%02d" i)

let gen_status rng ~host ~max_users =
  let n_users = Prng.int rng (max_users + 1) in
  {
    st_host = host;
    st_load1 = Prng.int rng 400;
    st_load5 = Prng.int rng 300;
    st_load15 = Prng.int rng 200;
    st_uptime = 3600 + Prng.int rng 1_000_000;
    st_users =
      List.init n_users (fun i ->
          {
            u_name = Printf.sprintf "user%c%c" (Char.chr (97 + Prng.int rng 26)) (Char.chr (97 + i));
            u_tty = Printf.sprintf "tty%d" i;
            u_idle = Prng.int rng 7200;
          });
  }

(* ----- wire format (common to both styles) ----- *)

let value_of_status st =
  Serializer.List
    [
      Serializer.Str st.st_host;
      Serializer.Int st.st_load1;
      Serializer.Int st.st_load5;
      Serializer.Int st.st_load15;
      Serializer.Int st.st_uptime;
      Serializer.List
        (List.map
           (fun u ->
             Serializer.List
               [ Serializer.Str u.u_name; Serializer.Str u.u_tty; Serializer.Int u.u_idle ])
           st.st_users);
    ]

let status_of_value = function
  | Serializer.List
      [
        Serializer.Str host;
        Serializer.Int l1;
        Serializer.Int l5;
        Serializer.Int l15;
        Serializer.Int up;
        Serializer.List users;
      ] ->
    {
      st_host = host;
      st_load1 = l1;
      st_load5 = l5;
      st_load15 = l15;
      st_uptime = up;
      st_users =
        List.map
          (function
            | Serializer.List
                [ Serializer.Str name; Serializer.Str tty; Serializer.Int idle ] ->
              { u_name = name; u_tty = tty; u_idle = idle }
            | _ -> raise (Serializer.Parse_error "bad user record"))
          users;
    }
  | _ -> raise (Serializer.Parse_error "bad status record")

let encode_packet st = Serializer.to_binary (value_of_status st)

let decode_packet b = status_of_value (Serializer.of_binary b)

(* ----- report formatting (shared) ----- *)

let format_load n = Printf.sprintf "%d.%02d" (n / 100) (n mod 100)

let format_rwho entries =
  let entries =
    List.sort
      (fun (n1, h1, t1, _) (n2, h2, t2, _) -> compare (n1, h1, t1) (n2, h2, t2))
      entries
  in
  String.concat ""
    (List.map
       (fun (name, host, tty, idle) ->
         Printf.sprintf "%-10s %s:%-6s idle %4d\n" name host tty idle)
       entries)

let format_ruptime rows =
  let rows = List.sort compare rows in
  String.concat ""
    (List.map
       (fun (host, uptime, n_users, l1, l5, l15) ->
         Printf.sprintf "%-8s up %6d, %2d users, load %s %s %s\n" host uptime n_users
           (format_load l1) (format_load l5) (format_load l15))
       rows)

(* ----- file-based implementation ----- *)

module Files = struct
  let spool = "/tmp/rwho"

  let setup k =
    let fs = Kernel.fs k in
    if not (Fs.exists fs spool) then Fs.mkdir fs spool

  let spool_file host = spool ^ "/whod." ^ host

  (* Every update rewrites the whole spool file, as rwhod did. *)
  let store k proc st =
    let ascii = Serializer.to_ascii (value_of_status st) in
    let fd = Kernel.sys_open k proc ~create:true ~trunc:true (spool_file st.st_host) in
    ignore (Kernel.sys_write k proc fd (Bytes.of_string ascii));
    Kernel.sys_close k proc fd

  let read_all k proc =
    let fs = Kernel.fs k in
    let s = Stats.cur () in
    s.syscalls <- s.syscalls + 1 (* readdir *);
    let names = Fs.readdir fs spool in
    List.filter_map
      (fun name ->
        if String.length name > 5 && String.sub name 0 5 = "whod." then begin
          let fd = Kernel.sys_open k proc (spool ^ "/" ^ name) in
          let bytes = Kernel.sys_read k proc fd 0x100000 in
          Kernel.sys_close k proc fd;
          Some (status_of_value (Serializer.of_ascii (Bytes.to_string bytes)))
        end
        else None)
      names

  let rwho k proc =
    let entries =
      List.concat_map
        (fun st ->
          List.map (fun u -> (u.u_name, st.st_host, u.u_tty, u.u_idle)) st.st_users)
        (read_all k proc)
    in
    format_rwho entries

  let ruptime k proc =
    let rows =
      List.map
        (fun st ->
          (st.st_host, st.st_uptime, List.length st.st_users, st.st_load1, st.st_load5,
           st.st_load15))
        (read_all k proc)
    in
    format_ruptime rows
end

(* ----- shared-memory implementation ----- *)

module Shm = struct
  let db_path = "/shared/rwho/db"

  (* The root block is the heap's first allocation: header (20 bytes)
     plus the block-size word.  Two words: the host-list head and a
     pointer to the host-name index table. *)
  let root_of base = base + 24

  let head_of base = root_of base

  let table_of k proc base = Kernel.load_u32 k proc (root_of base + 4)

  (* Host record fields. *)
  let f_host = 0
  let f_load1 = 1
  let f_load5 = 2
  let f_load15 = 3
  let f_uptime = 4
  let f_users = 5 (* the users list head lives inside the record *)
  let host_fields = 6

  let user_fields = 3 (* name ptr, tty ptr, idle *)

  let users_head_addr node = node + 4 + (4 * f_users)

  let setup k proc =
    let fs = Kernel.fs k in
    if not (Fs.exists fs "/shared/rwho") then Fs.mkdir fs "/shared/rwho";
    Fs.create_file fs db_path;
    let base = Shm_heap.create k proc ~path:db_path in
    let root = Shm_heap.alloc k proc ~heap:base 8 in
    assert (root = root_of base);
    Kernel.store_u32 k proc root 0;
    (* hostname -> record index, so updates need not walk the list *)
    Kernel.store_u32 k proc (root + 4)
      (Shared_table.create k proc ~heap:base ~capacity:509)

  let attach k proc = Kernel.map_shared_file k proc ~path:db_path ~prot:Prot.Read_write

  let find_host k proc ~base host =
    Shared_table.get k proc ~table:(table_of k proc base) ~key:host

  let clear_users k proc ~heap node =
    let head = users_head_addr node in
    let rec drain () =
      match Kernel.load_u32 k proc head with
      | 0 -> ()
      | unode ->
        Shm_heap.free k proc ~heap (Shared_list.field k proc unode 0);
        Shm_heap.free k proc ~heap (Shared_list.field k proc unode 1);
        ignore (Shared_list.pop k proc ~head ~n_fields:user_fields);
        drain ()
    in
    drain ()

  (* Update in place: no linearisation, no file rewrite. *)
  let store k proc st =
    let base = attach k proc in
    let node =
      match find_host k proc ~base st.st_host with
      | Some node -> node
      | None ->
        let node =
          Shared_list.push k proc ~head:(head_of base)
            ~fields:(List.init host_fields (fun _ -> 0))
        in
        Shared_list.set_field k proc node f_host
          (Shared_list.alloc_string k proc ~near:base st.st_host);
        Shared_table.put k proc ~table:(table_of k proc base) ~key:st.st_host node;
        node
    in
    Shared_list.set_field k proc node f_load1 st.st_load1;
    Shared_list.set_field k proc node f_load5 st.st_load5;
    Shared_list.set_field k proc node f_load15 st.st_load15;
    Shared_list.set_field k proc node f_uptime st.st_uptime;
    clear_users k proc ~heap:base node;
    List.iter
      (fun u ->
        ignore
          (Shared_list.push k proc ~head:(users_head_addr node)
             ~fields:
               [
                 Shared_list.alloc_string k proc ~near:base u.u_name;
                 Shared_list.alloc_string k proc ~near:base u.u_tty;
                 u.u_idle;
               ]))
      (List.rev st.st_users)

  let fold_hosts k proc f =
    let base = attach k proc in
    let acc = ref [] in
    Shared_list.iter k proc ~head:(head_of base) (fun node -> acc := f node :: !acc);
    List.rev !acc

  let users_of k proc node =
    let acc = ref [] in
    Shared_list.iter k proc ~head:(users_head_addr node) (fun unode ->
        acc :=
          {
            u_name = Shared_list.read_string k proc (Shared_list.field k proc unode 0);
            u_tty = Shared_list.read_string k proc (Shared_list.field k proc unode 1);
            u_idle = Shared_list.field k proc unode 2;
          }
          :: !acc);
    List.rev !acc

  let rwho k proc =
    let entries =
      List.concat
        (fold_hosts k proc (fun node ->
             let host = Shared_list.read_string k proc (Shared_list.field k proc node f_host) in
             List.map
               (fun u -> (u.u_name, host, u.u_tty, u.u_idle))
               (users_of k proc node)))
    in
    format_rwho entries

  let ruptime k proc =
    let rows =
      fold_hosts k proc (fun node ->
          ( Shared_list.read_string k proc (Shared_list.field k proc node f_host),
            Shared_list.field k proc node f_uptime,
            List.length (users_of k proc node),
            Shared_list.field k proc node f_load1,
            Shared_list.field k proc node f_load5,
            Shared_list.field k proc node f_load15 ))
    in
    format_ruptime rows
end

(* ----- the simulation harness ----- *)

type style = File_spool | Shared_db

let run_simulation ~style ~n_hosts ~rounds ~max_users =
  let k = Kernel.create () in
  let host_names = hosts n_hosts in
  Kernel.msgq_create k "rwhod-net" ~capacity:(max 8 (n_hosts * 2));
  (match style with
  | File_spool -> Files.setup k
  | Shared_db ->
    let init = Kernel.spawn_native k ~name:"rwho-setup" (fun k proc ->
        Shm.setup k proc;
        0)
    in
    ignore init;
    Kernel.run k);
  let store k proc st =
    match style with
    | File_spool -> Files.store k proc st
    | Shared_db -> Shm.store k proc st
  in
  let total_updates = rounds * n_hosts in
  (* The daemon: receive a packet, decode, store. *)
  ignore
    (Kernel.spawn_native k ~name:"rwhod" (fun k proc ->
         for _ = 1 to total_updates do
           store k proc (decode_packet (Kernel.msg_recv k proc "rwhod-net"))
         done;
         0));
  (* The network: peers broadcasting their status each round. *)
  ignore
    (Kernel.spawn_native k ~name:"network" (fun k proc ->
         let rng = Prng.create ~seed:42 in
         for _ = 1 to rounds do
           List.iter
             (fun host ->
               Kernel.msg_send k proc "rwhod-net" (encode_packet (gen_status rng ~host ~max_users)))
             host_names
         done;
         0));
  let before = Stats.snapshot () in
  Kernel.run k;
  let update_stats = Stats.diff ~before ~after:(Stats.snapshot ()) in
  (* One rwho call and one ruptime call, measured separately. *)
  let reports = ref ("", "") in
  let measure_util f =
    let before = Stats.snapshot () in
    ignore
      (Kernel.spawn_native k ~name:"rwho-util" (fun k proc ->
           f k proc;
           0));
    Kernel.run k;
    Stats.diff ~before ~after:(Stats.snapshot ())
  in
  let rwho_stats =
    measure_util (fun k proc ->
        let r =
          match style with File_spool -> Files.rwho k proc | Shared_db -> Shm.rwho k proc
        in
        reports := (r, snd !reports))
  in
  let ruptime_stats =
    measure_util (fun k proc ->
        let r =
          match style with
          | File_spool -> Files.ruptime k proc
          | Shared_db -> Shm.ruptime k proc
        in
        reports := (fst !reports, r))
  in
  (!reports, (update_stats, rwho_stats, ruptime_stats))

(* ----- the true multi-machine deployment ----- *)

module Cluster = Hemlock_os.Cluster
module Net = Hemlock_os.Net

(* The original broadcast-everything deployment: every machine pushes
   its status to every peer each round.  Kept as the loss-free baseline
   (experiment E5 and the golden transcripts measure it); the gossip
   deployment below is the cluster mode that survives a real network. *)
let run_cluster ~style ~machines ~rounds ~max_users =
  let cluster = Cluster.create ~machines () in
  let store k proc st =
    match style with
    | File_spool -> Files.store k proc st
    | Shared_db -> Shm.store k proc st
  in
  for i = 0 to machines - 1 do
    let k = Cluster.machine cluster i in
    (match style with
    | File_spool -> Files.setup k
    | Shared_db ->
      ignore (Kernel.spawn_native k ~name:"rwho-setup" (fun k proc -> Shm.setup k proc; 0));
      Kernel.run k);
    (* the receiving half of rwhod: consume peers' broadcasts forever *)
    let daemon =
      Kernel.spawn_native k ~name:"rwhod" (fun k proc ->
          while true do
            store k proc (decode_packet (Kernel.msg_recv k proc Cluster.inbox))
          done;
          0)
    in
    Kernel.set_daemon k daemon;
    (* the sending half: record local status, broadcast it to the peers *)
    ignore
      (Kernel.spawn_native k ~name:"rwhod-tx" (fun k proc ->
           let rng = Prng.create ~seed:(1000 + i) in
           for _ = 1 to rounds do
             let st = gen_status rng ~host:(Printf.sprintf "host%02d" i) ~max_users in
             store k proc st;
             Cluster.broadcast cluster ~from:i (encode_packet st)
           done;
           0))
  done;
  Cluster.run cluster;
  (* the utilities run on machine 0, which now mirrors every host *)
  let k0 = Cluster.machine cluster 0 in
  let reports = ref ("", "") in
  let before = Stats.snapshot () in
  ignore
    (Kernel.spawn_native k0 ~name:"rwho" (fun k proc ->
         let r, u =
           match style with
           | File_spool -> (Files.rwho k proc, Files.ruptime k proc)
           | Shared_db -> (Shm.rwho k proc, Shm.ruptime k proc)
         in
         reports := (r, u);
         0));
  Kernel.run k0;
  (!reports, Stats.diff ~before ~after:(Stats.snapshot ()))

(* ----- pull-based gossip / anti-entropy deployment -----

   Broadcast-everything is O(n^2) datagrams per round and falls apart
   the moment the network drops packets: a missed broadcast is gone
   forever.  Real rwhod survived on a campus network by treating the
   spool as a database with timestamps and aging hosts out.  This
   deployment does the same over the simulated lossy network: each
   epoch every live machine records its own status (versioned by
   epoch), then pulls from one random peer — it sends a digest of the
   (host, version) pairs it knows, and the peer answers with a delta of
   everything newer.  Entries merge by highest version, so duplicated
   or reordered deltas are harmless, and a partitioned or dead host
   simply stops producing new versions and ages out as "down" after
   [down_after] epochs.  All randomness (status contents, peer choice)
   comes from per-machine [Prng.stream]s consumed on the machine's own
   pinned domain, so a seed reproduces the same gossip trace at every
   domain count. *)

module Gossip = struct
  (* Per-machine soft state alongside the authoritative /shared (or
     spool) database: the newest version merged per host, and a mirror
     of each host's latest status so digests and deltas need not
     re-parse the database. *)
  type peer = {
    p_versions : (string, int) Hashtbl.t;
    p_latest : (string, status) Hashtbl.t;
  }

  type gossip = {
    cluster : Cluster.t;
    style : style;
    machines : int;
    max_users : int;
    down_after : int;
    peers : peer array;
    rngs : Prng.t array;  (* per-machine: status draws, then peer pick *)
    alive : bool array;
    domains : int option;
    mutable epoch : int;
  }

  type t = gossip

  let host_name i = Printf.sprintf "host%02d" i

  let store_status g k proc st =
    match g.style with
    | File_spool -> Files.store k proc st
    | Shared_db -> Shm.store k proc st

  (* Merge one gossiped status: newest version per host wins, writing
     through to the shared database. *)
  let merge g i k proc st ver =
    let peer = g.peers.(i) in
    let cur = Option.value ~default:(-1) (Hashtbl.find_opt peer.p_versions st.st_host) in
    if ver > cur then begin
      store_status g k proc st;
      Hashtbl.replace peer.p_versions st.st_host ver;
      Hashtbl.replace peer.p_latest st.st_host st
    end

  let digest_of peer =
    List.sort compare
      (Hashtbl.fold (fun host ver acc -> (host, ver) :: acc) peer.p_versions [])

  let encode_pull ~requester peer =
    Serializer.to_binary
      (Serializer.List
         [
           Serializer.Str "pull";
           Serializer.Int requester;
           Serializer.List
             (List.map
                (fun (host, ver) ->
                  Serializer.List [ Serializer.Str host; Serializer.Int ver ])
                (digest_of peer));
         ])

  (* The per-machine network daemon: answers pulls with deltas, merges
     deltas, and executes remote-exec requests (simulated user
     traffic). *)
  let spawn_netd g i =
    let k = Cluster.machine g.cluster i in
    let d =
      Kernel.spawn_native k ~name:"netd" (fun k proc ->
          while true do
            (match Serializer.of_binary (Kernel.msg_recv k proc Cluster.inbox) with
            | Serializer.List
                [ Serializer.Str "pull"; Serializer.Int requester; Serializer.List digest ]
              ->
              let have = Hashtbl.create 16 in
              List.iter
                (function
                  | Serializer.List [ Serializer.Str h; Serializer.Int ver ] ->
                    Hashtbl.replace have h ver
                  | _ -> ())
                digest;
              let peer = g.peers.(i) in
              let fresh =
                List.sort compare
                  (Hashtbl.fold
                     (fun host ver acc ->
                       if ver > Option.value ~default:(-1) (Hashtbl.find_opt have host)
                       then (host, ver) :: acc
                       else acc)
                     peer.p_versions [])
              in
              if fresh <> [] then
                Cluster.send g.cluster ~from:i ~dst:requester
                  (Serializer.to_binary
                     (Serializer.List
                        [
                          Serializer.Str "delta";
                          Serializer.List
                            (List.map
                               (fun (host, ver) ->
                                 Serializer.List
                                   [
                                     value_of_status (Hashtbl.find peer.p_latest host);
                                     Serializer.Int ver;
                                   ])
                               fresh);
                        ]))
            | Serializer.List [ Serializer.Str "delta"; Serializer.List entries ] ->
              List.iter
                (function
                  | Serializer.List [ stv; Serializer.Int ver ] ->
                    merge g i k proc (status_of_value stv) ver
                  | _ -> ())
                entries
            | Serializer.List [ Serializer.Str "exec"; Serializer.Int cost ] ->
              (* a remote-exec request: run the command, i.e. bill its
                 simulated work on this machine *)
              let st = Stats.cur () in
              st.instructions <- st.instructions + cost;
              st.context_switches <- st.context_switches + 1
            | _ -> ())
          done;
          0)
    in
    Kernel.set_daemon k d

  let create ?(down_after = 4) ?(max_users = 3) ?profile ?seed ?domains style ~machines
      () =
    let cluster = Cluster.create ?profile ?seed ~machines () in
    let wseed =
      Option.value seed ~default:Net.default_seed + 0x9e37
    in
    let g =
      {
        cluster;
        style;
        machines;
        max_users;
        down_after;
        peers =
          Array.init machines (fun _ ->
              { p_versions = Hashtbl.create 16; p_latest = Hashtbl.create 16 });
        rngs = Array.init machines (fun i -> Prng.stream ~seed:wseed ~index:i);
        alive = Array.make machines true;
        domains;
        epoch = 0;
      }
    in
    for i = 0 to machines - 1 do
      let k = Cluster.machine cluster i in
      (match style with
      | File_spool -> Files.setup k
      | Shared_db ->
        ignore
          (Kernel.spawn_native k ~name:"rwho-setup" (fun k proc ->
               Shm.setup k proc;
               0));
        Kernel.run k);
      spawn_netd g i
    done;
    g

  let cluster g = g.cluster

  let epoch_count g = g.epoch

  (* One gossip epoch.  Every live machine runs a short-lived tick
     process on its own kernel: optionally record a fresh local status
     (versioned by the new epoch), then pull from one random peer.
     [drive] can add extra per-machine traffic (simulated users) before
     the cluster runs to quiescence. *)
  let tick ?drive ~gen g =
    (* the staleness clock only advances when hosts speak: an
       anti-entropy-only settle round must not age anyone out *)
    if gen then g.epoch <- g.epoch + 1;
    let e = g.epoch in
    for i = 0 to g.machines - 1 do
      if g.alive.(i) then begin
        let k = Cluster.machine g.cluster i in
        ignore
          (Kernel.spawn_native k ~name:"rwhod-tick" (fun k proc ->
               let rng = g.rngs.(i) in
               if gen then
                 merge g i k proc
                   (gen_status rng ~host:(host_name i) ~max_users:g.max_users)
                   e;
               (* uniform pull target over the other machines — dead
                  peers included: you don't know who is down *)
               if g.machines > 1 then begin
                 let p = Prng.int rng (g.machines - 1) in
                 let p = if p >= i then p + 1 else p in
                 Cluster.send g.cluster ~from:i ~dst:p
                   (encode_pull ~requester:i g.peers.(i))
               end;
               0));
        match drive with Some f -> f i k | None -> ()
      end
    done;
    Cluster.run ?domains:g.domains g.cluster

  (* A full epoch: new local statuses plus anti-entropy. *)
  let epoch ?drive g = tick ?drive ~gen:true g

  (* Anti-entropy only: no new versions, just convergence traffic. *)
  let settle ?drive g = tick ?drive ~gen:false g

  (* The actual database contents as machine [i] sees them, via the
     same utilities the paper ran. *)
  let db_reports g i =
    let k = Cluster.machine g.cluster i in
    let out = ref ("", "") in
    ignore
      (Kernel.spawn_native k ~name:"rwho-util" (fun k proc ->
           out :=
             (match g.style with
             | File_spool -> (Files.rwho k proc, Files.ruptime k proc)
             | Shared_db -> (Shm.rwho k proc, Shm.ruptime k proc));
           0));
    Kernel.run k;
    !out

  let fingerprint g i =
    let r, u = db_reports g i in
    Digest.to_hex (Digest.string (r ^ "\x00" ^ u))

  let converged g =
    let fp = ref None in
    let same = ref true in
    for i = 0 to g.machines - 1 do
      if g.alive.(i) then begin
        let f = fingerprint g i in
        match !fp with
        | None -> fp := Some f
        | Some f0 -> if f <> f0 then same := false
      end
    done;
    !same

  (* Anti-entropy epochs until every live machine's database reads the
     same; [Some epochs_taken] or [None] past the budget. *)
  let converge ?(max_epochs = 64) g =
    let rec go n =
      if converged g then Some n
      else if n >= max_epochs then None
      else begin
        settle g;
        go (n + 1)
      end
    in
    go 0

  (* rwhod's staleness rule: a host whose newest gossiped version is
     older than [down_after] epochs is presumed down. *)
  let is_down g i host =
    match Hashtbl.find_opt g.peers.(i).p_versions host with
    | None -> true
    | Some v -> g.epoch - v > g.down_after

  (* rwho on machine [i]: logged-in users on hosts believed up. *)
  let rwho g i =
    let peer = g.peers.(i) in
    let entries =
      Hashtbl.fold
        (fun host st acc ->
          if is_down g i host then acc
          else
            List.map (fun u -> (u.u_name, host, u.u_tty, u.u_idle)) st.st_users @ acc)
        peer.p_latest []
    in
    format_rwho entries

  (* ruptime on machine [i], with the "down" marking real ruptime had. *)
  let ruptime g i =
    let peer = g.peers.(i) in
    let hosts =
      List.sort compare (Hashtbl.fold (fun h _ acc -> h :: acc) peer.p_latest [])
    in
    String.concat ""
      (List.map
         (fun host ->
           let st = Hashtbl.find peer.p_latest host in
           if is_down g i host then
             Printf.sprintf "%-8s down since epoch %d\n" host
               (Option.value ~default:0 (Hashtbl.find_opt peer.p_versions host))
           else
             Printf.sprintf "%-8s up %6d, %2d users, load %s %s %s\n" host st.st_uptime
               (List.length st.st_users) (format_load st.st_load1)
               (format_load st.st_load5) (format_load st.st_load15))
         hosts)

  (* Simulated host death: the machine stops ticking and its traffic is
     cut by a single-machine partition (its daemon can no longer be
     reached, nor answer). *)
  let kill g i =
    g.alive.(i) <- false;
    Net.partition (Cluster.net g.cluster) ~name:(Printf.sprintf "down-m%d" i)
      ~groups:[ [ i ] ]

  let revive g i =
    g.alive.(i) <- true;
    Net.heal (Cluster.net g.cluster) ~name:(Printf.sprintf "down-m%d" i)

  let partition g ~name ~groups = Net.partition (Cluster.net g.cluster) ~name ~groups

  let heal g ~name = Net.heal (Cluster.net g.cluster) ~name
end
