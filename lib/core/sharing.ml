type t = Static_private | Dynamic_private | Static_public | Dynamic_public

type link_time = Static_link_time | Run_time

type portion = Private | Public

let link_time = function
  | Static_private | Static_public -> Static_link_time
  | Dynamic_private | Dynamic_public -> Run_time

let instance_per_process = function
  | Static_private | Dynamic_private -> true
  | Static_public | Dynamic_public -> false

let portion = function
  | Static_private | Dynamic_private -> Private
  | Static_public | Dynamic_public -> Public

let is_public t = portion t = Public

let to_string = function
  | Static_private -> "static-private"
  | Dynamic_private -> "dynamic-private"
  | Static_public -> "static-public"
  | Dynamic_public -> "dynamic-public"

let of_string s =
  match String.lowercase_ascii s with
  | "static-private" | "sp" | "spriv" -> Some Static_private
  | "dynamic-private" | "dp" | "dpriv" -> Some Dynamic_private
  | "static-public" | "spub" -> Some Static_public
  | "dynamic-public" | "dpub" -> Some Dynamic_public
  | _ -> None

let pp ppf t = Format.pp_print_string ppf (to_string t)

let all = [ Static_private; Dynamic_private; Static_public; Dynamic_public ]
