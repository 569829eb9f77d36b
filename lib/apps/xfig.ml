module Kernel = Hemlock_os.Kernel
module Proc = Hemlock_os.Proc
module Fs = Hemlock_sfs.Fs
module Prot = Hemlock_vm.Prot
module Layout = Hemlock_vm.Layout
module Prng = Hemlock_util.Prng
module Serializer = Hemlock_baseline.Serializer
module Shm_heap = Hemlock_runtime.Shm_heap
module Shared_list = Hemlock_runtime.Shared_list

type obj = { o_kind : int; o_x : int; o_y : int; o_w : int; o_h : int }

let gen_figure rng ~n =
  List.init n (fun _ ->
      {
        o_kind = Prng.int rng 5;
        o_x = Prng.int rng 1200;
        o_y = Prng.int rng 900;
        o_w = 1 + Prng.int rng 400;
        o_h = 1 + Prng.int rng 300;
      })

let n_fields = 5

let fields_of_obj o = [ o.o_kind; o.o_x; o.o_y; o.o_w; o.o_h ]

let obj_of_fields = function
  | [ kind; x; y; w; h ] -> { o_kind = kind; o_x = x; o_y = y; o_w = w; o_h = h }
  | _ -> invalid_arg "Xfig.obj_of_fields"

module File_format = struct
  let value_of_objs objs =
    Serializer.List
      (List.map (fun o -> Serializer.List (List.map (fun v -> Serializer.Int v) (fields_of_obj o))) objs)

  let objs_of_value = function
    | Serializer.List items ->
      List.map
        (function
          | Serializer.List fields ->
            obj_of_fields
              (List.map (function Serializer.Int v -> v | _ -> failwith "bad field") fields)
          | _ -> failwith "bad object")
        items
    | _ -> failwith "bad figure file"

  (* Translate the linked structure to pointer-free ASCII and write it. *)
  let save k proc ~path objs =
    let ascii = Serializer.to_ascii (value_of_objs objs) in
    let fd = Kernel.sys_open k proc ~create:true ~trunc:true path in
    ignore (Kernel.sys_write k proc fd (Bytes.of_string ascii));
    Kernel.sys_close k proc fd

  let load k proc ~path =
    let fd = Kernel.sys_open k proc path in
    let bytes = Kernel.sys_read k proc fd 0x100000 in
    Kernel.sys_close k proc fd;
    objs_of_value (Serializer.of_ascii (Bytes.to_string bytes))
end

module Shared_fig = struct
  (* Root (the object list head) is the heap's first block. *)
  let root_of base = base + 24

  let create k proc ~path =
    let fs = Kernel.fs k in
    if not (Fs.exists fs ~cwd:proc.Proc.cwd path) then
      Fs.create_file fs ~cwd:proc.Proc.cwd path;
    let base = Shm_heap.create k proc ~path in
    let root = Shm_heap.alloc k proc ~heap:base 4 in
    assert (root = root_of base);
    Kernel.store_u32 k proc root 0;
    base

  let attach k proc ~path = Kernel.map_shared_file k proc ~path ~prot:Prot.Read_write

  let add k proc ~fig o =
    ignore (Shared_list.push k proc ~head:(root_of fig) ~fields:(fields_of_obj o))

  let objects k proc ~fig =
    let acc = ref [] in
    Shared_list.iter k proc ~head:(root_of fig) (fun node ->
        acc := obj_of_fields (List.init n_fields (Shared_list.field k proc node)) :: !acc);
    List.rev !acc

  let count k proc ~fig = Shared_list.length k proc ~head:(root_of fig)

  (* The pre-existing pointer-based copy routine, now operating on the
     persistent figure. *)
  let duplicate k proc ~fig ~dx ~dy =
    let originals = objects k proc ~fig in
    List.iter
      (fun o -> add k proc ~fig { o with o_x = o.o_x + dx; o_y = o.o_y + dy })
      (List.rev originals)
end

let file_session k proc ~path ~n_new ~dup =
  let objs = if Fs.exists (Kernel.fs k) ~cwd:proc.Proc.cwd path then File_format.load k proc ~path else [] in
  let rng = Prng.create ~seed:(17 + n_new) in
  let objs = gen_figure rng ~n:n_new @ objs in
  (* Bill the in-memory pointer manipulation at the same per-field rate
     the shared version pays through its checked accesses, so the two
     sessions differ only in translation and file traffic. *)
  let bill objs =
    let s = Hemlock_util.Stats.cur () in
    s.instructions <- s.instructions + ((n_fields + 1) * List.length objs)
  in
  bill objs;
  let objs =
    if dup then begin
      bill objs;
      List.map (fun o -> { o with o_x = o.o_x + 10; o_y = o.o_y + 10 }) objs @ objs
    end
    else objs
  in
  File_format.save k proc ~path objs;
  List.length objs

let shm_session k proc ~path ~n_new ~dup =
  let fig =
    if Fs.exists (Kernel.fs k) ~cwd:proc.Proc.cwd path then Shared_fig.attach k proc ~path
    else Shared_fig.create k proc ~path
  in
  let rng = Prng.create ~seed:(17 + n_new) in
  List.iter (fun o -> Shared_fig.add k proc ~fig o) (List.rev (gen_figure rng ~n:n_new));
  if dup then Shared_fig.duplicate k proc ~fig ~dx:10 ~dy:10;
  Shared_fig.count k proc ~fig

let naive_copy_is_broken k proc ~src ~dst =
  let fs = Kernel.fs k in
  (* cp: a plain byte copy of the file. *)
  let bytes = Fs.read_file fs ~cwd:proc.Proc.cwd src in
  Fs.write_file fs ~cwd:proc.Proc.cwd dst bytes;
  let dst_base = Kernel.map_shared_file k proc ~path:dst ~prot:Prot.Read_write in
  let head = Kernel.load_u32 k proc (Shared_fig.root_of dst_base) in
  (* The copied head pointer still aims into the original segment. *)
  head <> 0
  && not (head >= dst_base && head < dst_base + Layout.shared_slot_size)
