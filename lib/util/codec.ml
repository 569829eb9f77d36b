let mask32 v = v land 0xFFFF_FFFF

let sext16 v =
  let v = v land 0xFFFF in
  if v land 0x8000 <> 0 then v - 0x1_0000 else v

let sext32 v =
  let v = mask32 v in
  if v land 0x8000_0000 <> 0 then v - 0x1_0000_0000 else v

let get_u8 b off = Char.code (Bytes.get b off)
let set_u8 b off v = Bytes.set b off (Char.chr (v land 0xFF))

(* These sit under every memory access the interpreter and the trace
   JIT make: one explicit range check, then one unchecked 32-bit
   primitive in the host's byte order (little-endian on every host this
   runs on).  ocamlopt keeps the [Int32] the primitive yields in a
   register when it is converted straight to an [int], so a word costs
   one load or store and no allocation; the test suite's allocation
   gate on compiled code holds it to that.  They are small enough to
   inline into other modules, but only when this module is compiled
   without -opaque, as in the release profile that dune-workspace
   selects; under dune's dev profile every call site elsewhere is a
   real call, through caml_apply2/caml_apply3. *)
external unsafe_get_32 : Bytes.t -> int -> int32 = "%caml_bytes_get32u"
external unsafe_set_32 : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32u"

let get_u16 b off = Bytes.get_uint16_le b off

let set_u16 b off v = Bytes.set_uint16_le b off (v land 0xFFFF)

let unsafe_get_u32 b off = Int32.to_int (unsafe_get_32 b off) land 0xFFFF_FFFF

let unsafe_set_u32 b off v = unsafe_set_32 b off (Int32.of_int v)

let get_u32 b off =
  if off < 0 || off + 4 > Bytes.length b then invalid_arg "index out of bounds";
  unsafe_get_u32 b off

let set_u32 b off v =
  if off < 0 || off + 4 > Bytes.length b then invalid_arg "index out of bounds";
  unsafe_set_u32 b off v

module Writer = struct
  type t = Buffer.t

  let create () = Buffer.create 256
  let length = Buffer.length
  let u8 t v = Buffer.add_char t (Char.chr (v land 0xFF))

  let u16 t v =
    u8 t v;
    u8 t (v lsr 8)

  let u32 t v =
    u16 t v;
    u16 t (v lsr 16)

  let str t s =
    u16 t (String.length s);
    Buffer.add_string t s

  let bytes t b = Buffer.add_bytes t b
  let contents t = Buffer.to_bytes t
end

module Reader = struct
  type t = { data : Bytes.t; mutable pos : int }

  let create data = { data; pos = 0 }
  let pos t = t.pos
  let eof t = t.pos >= Bytes.length t.data

  let check t n =
    if t.pos + n > Bytes.length t.data then failwith "Codec.Reader: truncated input"

  let u8 t =
    check t 1;
    let v = get_u8 t.data t.pos in
    t.pos <- t.pos + 1;
    v

  let u16 t =
    check t 2;
    let v = get_u16 t.data t.pos in
    t.pos <- t.pos + 2;
    v

  let u32 t =
    check t 4;
    let v = get_u32 t.data t.pos in
    t.pos <- t.pos + 4;
    v

  let str t =
    let n = u16 t in
    check t n;
    let s = Bytes.sub_string t.data t.pos n in
    t.pos <- t.pos + n;
    s

  let bytes t n =
    check t n;
    let b = Bytes.sub t.data t.pos n in
    t.pos <- t.pos + n;
    b
end
