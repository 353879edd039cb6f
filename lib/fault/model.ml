type t = {
  name : string;
  params : (string * string) list;
  doc : string;
  inject : Fmc.Ssf.inject option;
}

let injector t = Option.value t.inject ~default:Fmc.Ssf.disc_transient

let canonical t =
  match t.params with
  | [] -> t.name
  | params ->
      t.name ^ ":" ^ String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) params)

let metric_name t =
  String.map
    (fun c ->
      match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> c | _ -> '_')
    (canonical t)
