type t = {
  mutable tlb : bool;
  mutable jit : bool;
  mutable symhash : bool;
  mutable plans : bool;
  mutable cow : bool;
  mutable pager : bool;
}

let uniform b = { tlb = b; jit = b; symhash = b; plans = b; cow = b; pager = b }
let all_on = uniform true
let oracle = uniform false
let copy c = { c with tlb = c.tlb }

let set dst src =
  dst.tlb <- src.tlb;
  dst.jit <- src.jit;
  dst.symhash <- src.symhash;
  dst.plans <- src.plans;
  dst.cow <- src.cow;
  dst.pager <- src.pager

type env = {
  use_oracle : bool;
  jit_threshold : int option;
  ram_pages : int option;
  domains : int;
  net_profile : string;
}

let parse lookup =
  let get var =
    match lookup var with
    | None -> None
    | Some s -> ( match String.trim s with "" -> None | v -> Some v)
  in
  let bad var v what = invalid_arg (Printf.sprintf "%s=%S: expected %s" var v what) in
  let positive var =
    Option.map
      (fun v ->
        match int_of_string_opt v with
        | Some n when n >= 1 -> n
        | Some _ | None -> bad var v "an integer >= 1")
      (get var)
  in
  {
    use_oracle =
      (match get "HEMLOCK_ORACLE" with
      | None -> false
      | Some "1" -> true
      | Some v -> bad "HEMLOCK_ORACLE" v "1 or nothing");
    jit_threshold = positive "HEMLOCK_JIT_THRESHOLD";
    ram_pages = positive "HEMLOCK_RAM_PAGES";
    domains = Option.value (positive "HEMLOCK_DOMAINS") ~default:1;
    net_profile =
      (match get "HEMLOCK_NET_PROFILE" with
      | None -> "ideal"
      | Some (("ideal" | "lan" | "wan" | "lossy") as p) -> p
      | Some v -> bad "HEMLOCK_NET_PROFILE" v "ideal, lan, wan or lossy");
  }

let env = parse Sys.getenv_opt
let current = copy (if env.use_oracle then oracle else all_on)

let with_ c f =
  let saved = copy current in
  set current c;
  Fun.protect ~finally:(fun () -> set current saved) f
