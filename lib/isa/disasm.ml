module Codec = Hemlock_util.Codec

let line ~pc word =
  match Insn.decode word with
  | insn -> Format.asprintf "%08x: %08x  %a" pc word Insn.pp insn
  | exception Failure _ -> Printf.sprintf "%08x: %08x  <data?>" pc word

let text ~base bytes =
  let buf = Buffer.create 256 in
  let n = Bytes.length bytes / 4 in
  for i = 0 to n - 1 do
    Buffer.add_string buf (line ~pc:(base + (4 * i)) (Codec.get_u32 bytes (4 * i)));
    Buffer.add_char buf '\n'
  done;
  Buffer.contents buf

let jump_targets ~base bytes =
  let n = Bytes.length bytes / 4 in
  let targets = ref [] in
  for i = 0 to n - 1 do
    let pc = base + (4 * i) in
    match Insn.decode (Codec.get_u32 bytes (4 * i)) with
    | Insn.J field | Insn.Jal field ->
      let t = Insn.jump_target ~pc field in
      if t >= base && t < base + Bytes.length bytes && not (List.mem t !targets) then
        targets := t :: !targets
    | _ -> ()
    | exception Failure _ -> ()
  done;
  List.sort compare !targets
