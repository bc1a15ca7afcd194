//! The commands of the `bench` binary, one module each; every module's
//! `run` is a row of [`crate::cli::COMMANDS`].

pub mod chokepoints;
pub mod datagen;
pub mod etl;
pub mod fig1;
pub mod fig3;
pub mod fleet;
pub mod ladder;
pub mod robustness;
pub mod run;
pub mod sec34;
pub mod sec35;
pub mod table1;
